// dynamo/analysis/census_series.hpp
//
// Run observer recording a per-round color census: dominant color and
// Shannon entropy per round, maintained incrementally from the changed
// cells (O(changed + |C|) per round, never a full-field rescan). Lives in
// analysis/ (not core/run/) so the core run API does not depend on this
// layer; attach via RunOptions::observers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/census.hpp"
#include "core/run/observer.hpp"

namespace dynamo::analysis {

class CensusSeries final : public Observer {
  public:
    struct Sample {
        std::uint32_t round = 0;
        std::size_t changed = 0;
        Color dominant = 0;
        std::size_t dominant_count = 0;
        double entropy_bits = 0.0;
    };

    void on_start(const ColorField& initial) override {
        census_ = census(initial);
        samples_.clear();
        samples_.push_back(sample(0, 0));
    }

    std::optional<StopRequest> on_round(const RoundEvent& event) override {
        for (const CellChange& ch : event.changes) {
            --census_.counts[ch.before];
            ++census_.counts[ch.after];
        }
        samples_.push_back(sample(event.round, event.changed));
        return std::nullopt;
    }

    const std::vector<Sample>& samples() const noexcept { return samples_; }

  private:
    Sample sample(std::uint32_t round, std::size_t changed) const {
        const Color dom = census_.dominant();
        return {round, changed, dom, census_.of(dom), census_.entropy_bits()};
    }

    ColorCensus census_;
    std::vector<Sample> samples_;
};

} // namespace dynamo::analysis
