/**
 * @file
 * Experiment-level checkpointing: a durable store of completed run
 * results, keyed by (experiment, run id, seed, spec hash), that
 * makes long sweeps resumable — `sfx run --checkpoint DIR` skips
 * runs the directory already holds, and `sfx resume DIR` finishes
 * an interrupted invocation.
 *
 * Checkpoint directory layout:
 *
 *   DIR/meta.json                       invocation binding (patterns,
 *                                       effort, base seed, run filter)
 *   DIR/<experiment>/runs/<entry>.json  one completed run each
 *   DIR/quarantine/                     corrupt entries, moved aside
 *   DIR/journal.jsonl                   append-only event stream
 *
 * Durability discipline:
 *  - Entries are written atomically: full temp file, fsync, then
 *    rename, so a crash mid-write never leaves a half entry under
 *    runs/.
 *  - The parent-directory fsync that makes each rename *durable*
 *    is batched: one pass over the dirty directories every
 *    kDirSyncInterval stored entries (plus a flush on destruction)
 *    instead of one fsync per entry. A crash can therefore lose
 *    only the *existence* of the most recent entries — never their
 *    integrity — and a lost entry is just a miss that re-executes
 *    on resume. meta.json stays immediately durable.
 *  - Every entry embeds a checksum over its own payload; load
 *    recomputes it, and any corruption (truncation, bit flip, bad
 *    JSON) moves the file to quarantine/ and reports a miss, so the
 *    run is re-executed instead of trusted.
 *  - Entries carry the spec hash of the plan that produced them
 *    (specHash() over the experiment's expanded run grid, effort,
 *    and base seed). When the registry changes, the hash changes,
 *    which invalidates exactly the affected experiment's entries —
 *    they count as stale, are re-run, and are overwritten in place.
 *
 * Because every run is a pure, deterministically seeded function of
 * (experiment, run id, seed) — see spec.hpp — a report rebuilt from
 * a mix of stored and freshly executed runs is byte-identical to an
 * uninterrupted sweep; test_run_store.cpp pins that with a
 * crash-injection harness.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "exp/scheduler.hpp"

namespace sf::exp {

/**
 * Hash of an experiment's expanded plan: name, artefact, title,
 * determinism flag, effort, base seed, and every run's (id, derived
 * seed, params). A checkpoint entry is valid only under the exact
 * hash it was written with, so registry edits can never be silently
 * served from stale results. Pure function of the plan — never of
 * registry iteration order, scheduling, or job count.
 */
std::string specHash(const ExperimentSpec &exp,
                     const std::vector<RunSpec> &runs, Effort effort,
                     std::uint64_t baseSeed);

/** Durable per-run result store under one checkpoint directory. */
class RunStore {
  public:
    /** Schema tag of meta.json and every entry file. */
    static constexpr const char *kSchema = "sf-exp-checkpoint-v1";

    /** The full key a stored result is valid under. */
    struct Key {
        std::string experiment;
        std::string runId;
        std::uint64_t seed = 0;
        std::string specHash;
    };

    /** Counters for one store's lifetime (all loads + stores). */
    struct Stats {
        /** Valid entries served in place of execution. */
        std::size_t hits = 0;
        /** Lookups with no entry on disk. */
        std::size_t misses = 0;
        /** Well-formed entries under an outdated key, re-run. */
        std::size_t stale = 0;
        /** Corrupt files moved to quarantine/, re-run. */
        std::size_t quarantined = 0;
        /** Entries persisted. */
        std::size_t writes = 0;
        /** Writes suppressed by the writeFilter test hook. */
        std::size_t dropped = 0;
        /** Persist attempts that failed (disk errors). */
        std::size_t writeErrors = 0;
        /** Parent-directory fsyncs issued by the durability
         *  batcher (store() flushes + flushDurability()). */
        std::size_t dirSyncs = 0;
    };

    /** Entries stored between parent-directory fsync batches: the
     *  most store() calls whose durability can be pending at once
     *  (a crash loses at most this many entries — as misses that
     *  re-execute on resume, never as corruption). */
    static constexpr std::size_t kDirSyncInterval = 32;

    /** Open (creating as needed) the checkpoint directory. */
    explicit RunStore(std::string dir);

    /** Flushes any batched directory fsyncs (flushDurability). */
    ~RunStore();

    const std::string &dir() const { return root_; }

    /**
     * Bind this directory to an invocation: create meta.json, or
     * validate an existing one field by field. Throws
     * std::runtime_error when the directory belongs to a different
     * invocation (other patterns, effort, base seed, or run filter).
     */
    void bindInvocation(const Json &meta);

    /**
     * Read DIR/meta.json without creating anything; throws
     * std::runtime_error when @p dir is not a checkpoint directory,
     * or when a sweep-defining field has the wrong type: patterns,
     * effort and run_filter must be strings, base_seed a
     * non-negative integer, and policy and reconfig_schedule, when
     * present, strings.
     */
    static Json readInvocationMeta(const std::string &dir);

    /**
     * Fetch the stored result for @p key into @p out (metrics only;
     * id/params/seed already come from the plan). False on miss,
     * stale key, or corruption — the caller executes the run.
     */
    bool load(const Key &key, RunResult &out);

    /** Classification of one entry file by inspect(). */
    enum class EntryState {
        Missing,  ///< no entry file on disk
        Valid,    ///< well-formed and keyed by @p key exactly
        Stale,    ///< well-formed but under an outdated key
        Corrupt,  ///< unreadable / checksum mismatch
    };

    /**
     * Read-only classification of the entry for @p key: unlike
     * load(), never quarantines, journals, or counts stats — the
     * status report must not change what a later resume observes.
     */
    EntryState inspect(const Key &key) const;

    /**
     * Persist a successfully completed run. Failed runs are never
     * stored (they re-execute on resume). Disk errors are counted
     * in stats().writeErrors, not thrown: losing a checkpoint entry
     * must not fail the sweep that produced it.
     */
    void store(const Key &key, const RunResult &result);

    /**
     * Fsync every directory with entries renamed in since the last
     * batch flush, making all previously stored entries durable.
     * Called automatically every kDirSyncInterval stores and on
     * destruction; callers needing a durability point mid-sweep
     * (e.g. before reporting progress externally) may invoke it
     * directly. Best-effort like the per-entry path: filesystems
     * that refuse directory handles simply skip the fsync.
     */
    void flushDurability();

    Stats stats() const;

    /** Absolute path of the entry file for (experiment, run id). */
    std::string entryPath(const std::string &experiment,
                          const std::string &runId) const;

    /**
     * Test hook for crash injection: invoked before persisting the
     * n-th entry (1-based, counted across threads); returning false
     * drops the write, simulating a process killed after n-1
     * completed checkpoints.
     */
    std::function<bool(std::size_t attempt)> writeFilter;

  private:
    /** Shared validation behind load() and inspect(): classify the
     *  entry on disk; on Valid, the parsed entry lands in
     *  @p entry_out (when non-null). */
    EntryState classify(const Key &key, Json *entry_out) const;
    void logEvent(const char *event, const Key &key);
    void quarantine(const std::string &path, const Key &key);

    std::string root_;
    mutable std::mutex mutex_; ///< guards stats_, journal appends,
                               ///< and the dir-sync batch state
    Stats stats_;
    std::atomic<std::size_t> writeAttempts_{0};
    /** Directories holding renames not yet made durable. */
    std::vector<std::string> dirtyDirs_;
    /** Entries stored since the last batch flush. */
    std::size_t pendingDirSync_ = 0;
};

} // namespace sf::exp
