/**
 * @file
 * Keyed, thread-safe, build-once memo of shared immutable values.
 *
 * Experiment sweeps run every design on one generated network per
 * scale and replay the same workload traces on every design, so
 * the process shares those artefacts across concurrent runs: the
 * topology cache (topos::topologyCache), the trace memo behind
 * wl::sharedTrace and the ODM multiplier memo behind
 * topos::matchOdmMultiplier are each one SharedMemo.
 *
 * Concurrency contract:
 *  - getOrBuild() is safe from any number of threads.
 *  - A resident key is built exactly once: late arrivals block on
 *    the first requester's std::shared_future (counted as hits)
 *    and receive the same value.
 *  - The build runs outside the memo's lock, so other keys stay
 *    available while it runs.
 *  - A build that throws propagates to every waiter of its round
 *    and drops only its own entry, so a later request retries.
 *
 * Entries stay resident until clear(): even `sfx run '*' --full`
 * builds only a few dozen topologies and a handful of traces.
 * Clearing only drops the memo's copy of each value; a Value that
 * is a shared_ptr stays alive in every run that still holds it.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>

namespace sf::net {

/** A memo's hit/miss counters (monotonic; clear() keeps them). */
struct MemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< builds started
};

/** Build-once memo; Key needs a strict weak order (operator<). */
template <class Key, class Value>
class SharedMemo
{
  public:
    /**
     * Return the value for @p key, invoking @p build at most once
     * while the key is resident. Blocks (without holding the memo
     * lock) while another thread builds the same key.
     */
    template <class Build>
    Value
    getOrBuild(const Key &key, const Build &build)
    {
        std::promise<Value> promise;
        std::shared_future<Value> future;
        std::uint64_t my_gen = 0;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (const auto it = map_.find(key); it != map_.end()) {
                ++stats_.hits;
                future = it->second.future;
            } else {
                ++stats_.misses;
                my_gen = ++generation_;
                future = promise.get_future().share();
                map_.emplace(key, Entry{future, my_gen});
            }
        }
        if (my_gen != 0) {
            try {
                promise.set_value(build());
            } catch (...) {
                promise.set_exception(std::current_exception());
                // Drop the failed entry only if it is still ours:
                // clear() may have raced this build and a new
                // round may own the key by now.
                const std::lock_guard<std::mutex> lock(mutex_);
                const auto it = map_.find(key);
                if (it != map_.end() &&
                    it->second.generation == my_gen)
                    map_.erase(it);
            }
        }
        return future.get();
    }

    MemoStats
    stats() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

    /** Resident entry count (includes in-flight builds). */
    std::size_t
    size() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

    /** Drop every resident entry (counters are preserved). */
    void
    clear()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
    }

  private:
    struct Entry {
        std::shared_future<Value> future;
        /** Insertion id: lets a failed build drop exactly its own
         *  entry even if clear() raced it and the key was
         *  re-inserted. */
        std::uint64_t generation = 0;
    };

    mutable std::mutex mutex_;
    std::map<Key, Entry> map_;
    std::uint64_t generation_ = 0;
    MemoStats stats_;
};

} // namespace sf::net
