/**
 * @file
 * Dynamic-energy accounting (paper Table I: 5 pJ/bit/hop network,
 * 12 pJ/bit DRAM) and energy-delay product.
 */

#pragma once

#include <cstdint>

#include "mem/dram_timing.hpp"
#include "sim/sim_config.hpp"

namespace sf::mem {

/** Accumulates energy over one run. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params = {})
        : params_(params)
    {
    }

    /** Charge a packet movement: @p bits over @p hops hops. */
    void
    addNetwork(std::uint64_t bits, std::uint64_t hops)
    {
        networkPj_ += EnergyParams::kNetworkPjPerBitHop *
                      static_cast<double>(bits) *
                      static_cast<double>(hops);
    }

    /** Charge network flit-hops directly (bits = flitHops x width). */
    void
    addFlitHops(std::uint64_t flit_hops, int flit_bits)
    {
        networkPj_ += EnergyParams::kNetworkPjPerBitHop *
                      static_cast<double>(flit_hops) *
                      static_cast<double>(flit_bits);
    }

    /** Charge a DRAM access of @p bits. */
    void
    addDram(std::uint64_t bits)
    {
        dramPj_ += EnergyParams::kDramPjPerBit * static_cast<double>(bits);
    }

    /** Charge background energy: @p node_cycles active node-cycles. */
    void
    addBackground(std::uint64_t node_cycles)
    {
        backgroundPj_ += params_.idlePjPerNodeCycle *
                         static_cast<double>(node_cycles);
    }

    double networkPj() const { return networkPj_; }
    double dramPj() const { return dramPj_; }
    double backgroundPj() const { return backgroundPj_; }
    double
    totalPj() const
    {
        return networkPj_ + dramPj_ + backgroundPj_;
    }

    /** Energy-delay product in joule-seconds. */
    double
    edp(Cycle runtime_cycles) const
    {
        const double joules = totalPj() * 1e-12;
        const double seconds = static_cast<double>(runtime_cycles) *
                               sim::SimConfig::kNsPerCycle * 1e-9;
        return joules * seconds;
    }

  private:
    EnergyParams params_;
    double networkPj_ = 0.0;
    double dramPj_ = 0.0;
    double backgroundPj_ = 0.0;
};

} // namespace sf::mem
