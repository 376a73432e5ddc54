// dynamo/io/run_stream.hpp
//
// Streaming run observability for large-graph workloads: an Observer
// (core/run/observer.hpp) that emits one JSONL record per executed round
// through the shared serialized sink (io/jsonl.hpp) and folds per-round
// latencies into a Log2Histogram (analysis/histogram.hpp), so a
// million-vertex frontier sweep can be watched live (`tail -f`) and
// profiled after the fact without the run keeping anything O(rounds) in
// memory beyond the 65-counter histogram.
//
// Records:
//   {"type":"round","round":r,"changed":c,"latency_us":us}     per round
//   {"type":"run","rounds":n,"termination":t,
//    "total_recolorings":m,"latency_us":{histogram}}           on finish
//
// Determinism: the wall clock is injected (`now_us`), so tests drive a
// fake clock and the stream is byte-identical serial vs pooled - the
// property the differential net pins. The default clock is
// std::chrono::steady_clock.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <utility>

#include "analysis/histogram.hpp"
#include "core/run/observer.hpp"
#include "core/run/result.hpp"
#include "io/jsonl.hpp"
#include "util/json.hpp"

namespace dynamo::io {

class RoundStreamObserver final : public Observer {
  public:
    /// `now_us` is the microsecond clock, injectable so tests are
    /// deterministic; empty = std::chrono::steady_clock.
    explicit RoundStreamObserver(JsonlWriter& writer,
                                 std::function<std::uint64_t()> now_us = {})
        : writer_(&writer), now_us_(std::move(now_us)) {
        if (!now_us_) {
            now_us_ = [] {
                return static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
            };
        }
    }

    void on_start(const ColorField& /*initial*/) override {
        histogram_ = {};
        last_us_ = now_us_();
    }

    std::optional<StopRequest> on_round(const RoundEvent& event) override {
        const std::uint64_t now = now_us_();
        const std::uint64_t latency = now - last_us_;
        last_us_ = now;
        histogram_.add(latency);

        if (writer_->enabled()) {
            using util::Json;
            util::JsonObject o;
            o.reserve(4);  // also sidesteps a GCC-12 -Warray-bounds false positive
            o.emplace_back("type", Json("round"));
            o.emplace_back("round", Json(static_cast<std::uint64_t>(event.round)));
            o.emplace_back("changed", Json(static_cast<std::uint64_t>(event.changed)));
            o.emplace_back("latency_us", Json(latency));
            writer_->write(Json(std::move(o)));
        }
        return std::nullopt;
    }

    void on_finish(RunResult& result) override {
        if (!writer_->enabled()) return;
        using util::Json;
        util::JsonObject o;
        o.reserve(5);  // also sidesteps a GCC-12 -Warray-bounds false positive
        o.emplace_back("type", Json("run"));
        o.emplace_back("rounds", Json(static_cast<std::uint64_t>(result.rounds)));
        o.emplace_back("termination", Json(std::string(to_string(result.termination))));
        o.emplace_back("total_recolorings", Json(result.total_recolorings));
        o.emplace_back("latency_us", histogram_.to_json());
        writer_->write(Json(std::move(o)));
    }

    /// One sample per observed round (invariant the property tests pin:
    /// total() == number of round records written).
    const analysis::Log2Histogram& latency_histogram() const noexcept { return histogram_; }

  private:
    JsonlWriter* writer_;
    std::function<std::uint64_t()> now_us_;
    analysis::Log2Histogram histogram_;
    std::uint64_t last_us_ = 0;
};

} // namespace dynamo::io
