/**
 * @file
 * The experiment registry: every paper figure / table / ablation
 * registers one ExperimentSpec under a stable name; the sfx CLI
 * resolves names or globs against it.
 */

#pragma once

#include <string_view>
#include <vector>

#include "exp/spec.hpp"

namespace sf::exp {

/**
 * Shell-style glob match supporting '*' (any run, including empty)
 * and '?' (any single character).
 */
bool globMatch(std::string_view pattern, std::string_view text);

class Registry {
  public:
    /** Add a spec. Throws std::invalid_argument on duplicate name. */
    void add(ExperimentSpec spec);

    /** All specs, sorted by name. */
    const std::vector<ExperimentSpec> &all() const { return specs_; }

    /** Lookup by exact name; nullptr when absent. */
    const ExperimentSpec *find(std::string_view name) const;

    /**
     * Specs matching any of the comma-separated glob @p patterns,
     * in registry (name-sorted) order, deduplicated.
     */
    std::vector<const ExperimentSpec *>
    match(std::string_view patterns) const;

  private:
    std::vector<ExperimentSpec> specs_;
};

/**
 * The process-wide registry, populated with every built-in
 * experiment on first use.
 */
Registry &registry();

} // namespace sf::exp
