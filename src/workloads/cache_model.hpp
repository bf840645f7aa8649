/**
 * @file
 * The trace generator's cache hierarchy (paper Section V): 32 KB L1,
 * 2 MB L2, 32 MB L3 with associativities 4, 8, and 16, 64-byte
 * lines, LRU replacement, write-back write-allocate. CPU-side
 * accesses filter through all three levels; only the resulting DRAM
 * traffic (miss fills and dirty evictions) reaches the memory
 * network, exactly like the paper's Pin-based tool.
 *
 * Each set is one 32-bit word per way, `(tag << 1) | dirty` (all
 * ones when empty), in recency order. Nothing invalidates a line, so
 * the filled ways are a prefix: an access checks the front (MRU) word,
 * then scans the rest without branches; a hit moves its word to the
 * front, a miss drops the last word (the LRU line, or an empty way)
 * and inserts the new line in front. The hierarchy is 2.1 MiB.
 *
 * This is exact LRU, and it picks the same victims as the per-way
 * u32-timestamp model that tests/test_workloads.cpp keeps as its
 * reference, provided that:
 *  - tags stay below the empty word's 0x7fffffff: addresses below
 *    2^44 - 8 KiB at L1's 128 sets (workload streams stay < 5 GiB);
 *  - a level makes < 2^32 accesses, so stamps never wrap: a CPU
 *    access makes at most 1 L1, 2 L2 and 3 L3 accesses, and
 *    generateTrace caps CPU accesses at 400 x (num_ops + warmup_ops),
 *    at most 9.6e8 L3 accesses for 100,000 + 700,000 ops.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace sf::wl {

/** One set-associative write-back cache level with 64-byte lines. */
template <int Ways>
class CacheLevel
{
  public:
    explicit CacheLevel(std::uint64_t size_bytes)
        : numSets_((size_bytes >> kLineShift) / Ways),
          setBits_(std::countr_zero(numSets_)),
          words_(numSets_ * Ways, kEmpty)
    {
        assert(std::has_single_bit(numSets_));
    }

    /** Result of looking a line up (and inserting it on miss). */
    struct Outcome {
        bool hit = false;
        bool evictedDirty = false;
        std::uint64_t evictedLine = 0;  ///< line address (bytes)
    };

    /**
     * Access the line containing @p addr; allocates on miss and
     * reports any dirty eviction.
     */
    Outcome
    access(std::uint64_t addr, bool is_write)
    {
        const std::uint64_t line = addr >> kLineShift;
        const std::uint64_t index = line & (numSets_ - 1);
        assert((line >> setBits_) < (kEmpty >> 1));
        const auto tag = static_cast<std::uint32_t>(line >> setBits_);
        const std::uint32_t dirty = is_write ? 1 : 0;
        std::uint32_t *set = &words_[index * Ways];

        Outcome outcome;
        if (set[0] >> 1 == tag) {  // the MRU line stays in front
            set[0] |= dirty;
            ++hits_;
            outcome.hit = true;
            return outcome;
        }
        int way = Ways;  // the tag's way; Ways means a miss
        for (int w = Ways - 1; w > 0; --w)
            way = set[w] >> 1 == tag ? w : way;

        std::uint32_t word;
        if (way != Ways) {
            word = set[way] | dirty;
            ++hits_;
            outcome.hit = true;
        } else {
            way = Ways - 1;  // the LRU word, or an empty way
            const std::uint32_t victim = set[way];
            if (victim != kEmpty && (victim & 1) != 0) {
                outcome.evictedDirty = true;
                outcome.evictedLine =
                    ((std::uint64_t{victim >> 1} << setBits_) | index)
                    << kLineShift;
            }
            word = (tag << 1) | dirty;
            ++misses_;
        }
        // The words before `way` move back one; the line goes first.
        std::copy_backward(set, set + way, set + way + 1);
        set[0] = word;
        return outcome;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    static constexpr int kLineShift = 6;
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    std::uint64_t numSets_;
    int setBits_;
    std::vector<std::uint32_t> words_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** A DRAM access produced by the hierarchy. */
struct MemAccess {
    std::uint64_t addr = 0;
    bool isWrite = false;
};

/** The paper's three-level hierarchy. */
class CacheHierarchy
{
  public:
    /**
     * Run one CPU access through L1/L2/L3.
     *
     * @param[out] dram DRAM accesses appended (miss fill read
     *             and/or L3 dirty writeback).
     */
    void
    access(std::uint64_t addr, bool is_write,
           std::vector<MemAccess> &dram)
    {
        // Write-back write-allocate at every level: dirty victims
        // cascade down; fills propagate up as clean copies.
        const auto r1 = l1_.access(addr, is_write);
        if (r1.evictedDirty) {
            const auto r2 = l2_.access(r1.evictedLine, true);
            if (!r2.hit && r2.evictedDirty)
                writebackToL3(r2.evictedLine, dram);
        }
        if (r1.hit)
            return;

        const auto r2 = l2_.access(addr, false);
        if (r2.evictedDirty)
            writebackToL3(r2.evictedLine, dram);
        if (r2.hit)
            return;

        const auto r3 = l3_.access(addr, false);
        if (r3.evictedDirty)
            dram.push_back(MemAccess{r3.evictedLine, true});
        if (r3.hit)
            return;
        dram.push_back(MemAccess{addr, false});
    }

    const CacheLevel<4> &l1() const { return l1_; }
    const CacheLevel<16> &l3() const { return l3_; }

  private:
    /** Write a victim line back into L3; dirty L3 victims hit DRAM. */
    void
    writebackToL3(std::uint64_t line, std::vector<MemAccess> &dram)
    {
        const auto out = l3_.access(line, true);
        // A full-line writeback allocates without fetching
        // (write-validate); only a displaced dirty line reaches DRAM.
        if (!out.hit && out.evictedDirty)
            dram.push_back(MemAccess{out.evictedLine, true});
    }

    CacheLevel<4> l1_{32 * 1024};
    CacheLevel<8> l2_{2 * 1024 * 1024};
    CacheLevel<16> l3_{32ull * 1024 * 1024};
};

} // namespace sf::wl
