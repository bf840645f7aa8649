/**
 * @file
 * Memory-node model: banked die-stacked DRAM behind each router.
 *
 * Each 8 GB node (HMC-like) models @c numBanks independent banks
 * with open-row policy and FCFS per-bank queueing. A request's
 * service latency is tCL on a row hit and tRP + tRCD + tCL on a row
 * miss (honouring tRAS minimum activate spacing), after any earlier
 * requests on the same bank complete.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/dram_timing.hpp"
#include "net/types.hpp"

namespace sf::mem {

/** One memory node's DRAM stack. */
class MemoryNode
{
  public:
    /**
     * @param num_banks Independent banks (HMC vault-like).
     * @param row_bytes Row-buffer coverage per bank.
     */
    explicit MemoryNode(int num_banks = 16,
                        std::uint64_t row_bytes = 2048)
        : rowBytes_(row_bytes),
          banks_(static_cast<std::size_t>(num_banks))
    {
    }

    /**
     * Issue an access to @p local_addr at @p now.
     *
     * @return Cycle at which the data is available (read) or the
     *         write commits.
     */
    Cycle
    access(std::uint64_t local_addr, bool is_write, Cycle now)
    {
        (void)is_write;  // same bank occupancy either way
        const std::uint64_t row = local_addr / rowBytes_;
        Bank &bank = banks_[row % banks_.size()];
        const Cycle start = std::max(now, bank.busyUntil);
        Cycle done;
        if (bank.rowOpen && bank.openRow == row) {
            done = start + DramTiming::cl();
            ++rowHits_;
        } else {
            // Precharge (honouring tRAS), activate, then column.
            const Cycle precharge_at = std::max(
                start, bank.lastActivate + DramTiming::ras());
            done = precharge_at + DramTiming::rp() +
                   DramTiming::rcd() + DramTiming::cl();
            bank.lastActivate = precharge_at + DramTiming::rp();
            bank.rowOpen = true;
            bank.openRow = row;
            ++rowMisses_;
        }
        bank.busyUntil = done;
        return done;
    }

    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }

  private:
    struct Bank {
        Cycle busyUntil = 0;
        Cycle lastActivate = 0;
        std::uint64_t openRow = 0;
        bool rowOpen = false;
    };

    std::uint64_t rowBytes_;
    std::vector<Bank> banks_;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

} // namespace sf::mem
