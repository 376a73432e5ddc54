// dynamo/util/table.hpp
//
// Console table formatting for the experiment binaries. Every reproduced
// paper table/figure is printed as an aligned monospace table with a title
// row, so the bench output can be diffed against EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace dynamo {

class ConsoleTable {
  public:
    explicit ConsoleTable(std::vector<std::string> headers)
        : headers_(std::move(headers)) {
        DYNAMO_REQUIRE(!headers_.empty(), "table needs at least one column");
        widths_.resize(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c) widths_[c] = headers_[c].size();
    }

    /// Append a row; each cell is stringified with operator<<.
    template <typename... Cells>
    void add_row(const Cells&... cells) {
        std::vector<std::string> row;
        row.reserve(sizeof...(cells));
        (row.push_back(stringify(cells)), ...);
        DYNAMO_REQUIRE(row.size() == headers_.size(),
                       "row arity mismatch: expected " + std::to_string(headers_.size()));
        for (std::size_t c = 0; c < row.size(); ++c)
            widths_[c] = std::max(widths_[c], row[c].size());
        rows_.push_back(std::move(row));
    }

    std::size_t rows() const noexcept { return rows_.size(); }

    void print(std::ostream& os) const {
        print_row(os, headers_);
        os << rule() << '\n';
        for (const auto& r : rows_) print_row(os, r);
    }

  private:
    template <typename T>
    static std::string stringify(const T& value) {
        if constexpr (std::is_same_v<T, double> || std::is_same_v<T, float>) {
            std::ostringstream os;
            os << std::fixed << std::setprecision(3) << value;
            return os.str();
        } else if constexpr (std::is_same_v<T, bool>) {
            return value ? "yes" : "no";
        } else {
            std::ostringstream os;
            os << value;
            return os.str();
        }
    }

    std::string rule() const {
        std::size_t total = 0;
        for (const auto w : widths_) total += w + 2;
        return std::string(total + widths_.size() - 1, '-');
    }

    void print_row(std::ostream& os, const std::vector<std::string>& row) const {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << ' ' << std::setw(static_cast<int>(widths_[c])) << std::left << row[c] << ' ';
            if (c + 1 < row.size()) os << '|';
        }
        os << '\n';
    }

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::size_t> widths_;
};

/// Section banner used by every bench binary: makes `bench_output.txt`
/// navigable per paper artifact (figure/table id in the title).
inline void print_banner(std::ostream& os, const std::string& title) {
    os << '\n' << std::string(72, '=') << '\n'
       << "  " << title << '\n'
       << std::string(72, '=') << '\n';
}

} // namespace dynamo
