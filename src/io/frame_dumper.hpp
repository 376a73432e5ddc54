// dynamo/io/frame_dumper.hpp
//
// Run observer writing PPM frames: one image per `every` rounds (plus the
// initial and final states), ready for
// `ffmpeg -i frame_%03d.ppm wave.gif`. Replaces the hand-rolled dump loop
// of examples/wavefront_frames. Lives in io/ (not core/run/) so the core
// run API does not depend on this layer; attach via RunOptions::observers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/run/observer.hpp"
#include "grid/torus.hpp"
#include "io/ppm.hpp"

namespace dynamo::io {

class FrameDumper final : public Observer {
  public:
    FrameDumper(const grid::Torus& torus, std::string outdir, std::uint32_t every = 1,
                unsigned scale = 8, std::string prefix = "frame_")
        : torus_(&torus), outdir_(std::move(outdir)), prefix_(std::move(prefix)),
          every_(every == 0 ? 1 : every), scale_(scale) {
        std::filesystem::create_directories(outdir_);
    }

    void on_start(const ColorField& initial) override {
        frame_ = 0;
        dump(initial);
        last_dumped_round_ = 0;
    }

    std::optional<StopRequest> on_round(const RoundEvent& event) override {
        if (event.round % every_ == 0) {
            dump(event.colors);
            last_dumped_round_ = event.round;
        }
        return std::nullopt;
    }

    void on_finish(RunResult& result) override {
        if (last_dumped_round_ != result.rounds) {
            dump(result.final_colors);
            last_dumped_round_ = result.rounds;
        }
    }

    std::uint32_t frames_written() const noexcept { return frame_; }
    const std::string& outdir() const noexcept { return outdir_; }

  private:
    void dump(const ColorField& field) {
        std::ostringstream path;
        path << outdir_ << '/' << prefix_ << std::setw(3) << std::setfill('0') << frame_++
             << ".ppm";
        write_ppm(path.str(), *torus_, field, scale_);
    }

    const grid::Torus* torus_;
    std::string outdir_;
    std::string prefix_;
    std::uint32_t every_;
    unsigned scale_;
    std::uint32_t frame_ = 0;
    std::uint32_t last_dumped_round_ = 0;
};

} // namespace dynamo::io
