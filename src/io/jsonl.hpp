// dynamo/io/jsonl.hpp
//
// The ONE serialized JSONL sink shared by everything that streams
// line-delimited JSON records: campaign progress (scenario/campaign.hpp's
// CampaignLedger owns one of these), the campaign service's progress
// buffers, and the per-round run stream observers (io/run_stream.hpp).
//
// Contract, inherited from the PR-8 progress path and now enforced in one
// place:
//   * every record is rendered OUTSIDE the lock and written under it, so
//     concurrent pool workers can never interleave bytes of two lines;
//   * every line is flushed as it is written, so `tail -f` of a stream
//     file tracks a long campaign live;
//   * the stream is flushed once more on drop, so a process exiting right
//     after the last record can never leave a truncated final line;
//   * a null sink is legal and makes every write a no-op, so call sites
//     need no "is streaming enabled" branches.
#pragma once

#include <mutex>
#include <ostream>

#include "util/json.hpp"

namespace dynamo::io {

class JsonlWriter {
  public:
    explicit JsonlWriter(std::ostream* out) : out_(out) {}
    ~JsonlWriter() {
        if (out_ != nullptr) out_->flush();
    }
    JsonlWriter(const JsonlWriter&) = delete;
    JsonlWriter& operator=(const JsonlWriter&) = delete;

    bool enabled() const noexcept { return out_ != nullptr; }

    /// Write one record as a single compact line and flush it.
    void write(const util::Json& record) {
        if (out_ == nullptr) return;
        write_line(record.dump(0));
    }

    /// Write an already-rendered single-line payload and flush it. The
    /// caller guarantees `line` contains no newline.
    void write_line(const std::string& line) {
        if (out_ == nullptr) return;
        const std::lock_guard<std::mutex> lock(mutex_);
        *out_ << line << "\n" << std::flush;
    }

  private:
    std::ostream* out_;
    std::mutex mutex_;
};

} // namespace dynamo::io
