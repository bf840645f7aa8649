/**
 * @file
 * Thin wrapper over the sf::exp registry: runs the
 * cycle-engine hot-path benchmark — the same grid
 * `sfx run 'micro_simulator'` executes, with --jobs/--out/--effort
 * available here too. Each load point carries two rows:
 * n1024/uniform/<load> (the engine's cycles/sec) and .../phases
 * (per-phase wall time).
 */

#include "exp/driver.hpp"

int
main(int argc, char **argv)
{
    return sf::exp::benchMain("micro_simulator", argc, argv);
}
