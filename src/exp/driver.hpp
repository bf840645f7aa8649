/**
 * @file
 * The unified experiment driver behind the `sfx` CLI.
 *
 *   sfx list                          — registry contents
 *   sfx run <name|glob>... [options]  — plan, schedule, report
 *   sfx resume <dir> [options]        — finish an interrupted
 *                                       --checkpoint invocation
 *   sfx diff <base.json> <new.json>   — per-run metric deltas,
 *                                       tolerance-gated exit code
 *
 * Options: --jobs N, --out FILE, --effort quick|default|full
 * (plus the legacy --quick/--full spellings), --seed S, --timing,
 * --list-runs, --quiet, --checkpoint DIR, --max-runs N (simulated
 * interrupt, exit 3); diff takes --tolerance F, --json, and
 * --bless.
 */

#pragma once

namespace sf::exp {

/** Entry point of the sfx binary. */
int sfxMain(int argc, char **argv);

} // namespace sf::exp
