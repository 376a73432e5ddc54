#include "core/builders.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "util/assert.hpp"

namespace dynamo {

namespace {

using grid::Topology;
using grid::Torus;
using grid::VertexId;

void paint(ColorField& field, const std::vector<VertexId>& vs, Color c) {
    for (const VertexId v : vs) field[v] = c;
}

// ---------------------------------------------------------------------------
// Stripe plans
// ---------------------------------------------------------------------------
//
// Every construction in Theorems 2, 4 and 6 reduces to the same coloring
// skeleton (a reproduction finding - see DESIGN.md section 4):
//
//   * a sequence of monochromatic stripes c(1..len) running perpendicular
//     to the seed line (rows for the mesh/serpentinus-column cases,
//     columns for the cordalis/serpentinus-row cases), each stripe an
//     induced path terminated by seeds, and
//   * one "buffer" class c0 (the mesh pendant vertex / the cordalis buffer
//     column 0 / the serpentinus buffer row 0).
//
// Constraint set (derived in DESIGN.md; each clause is exercised by tests):
//   (a) adjacent stripes differ:        c(i) != c(i+1)
//   (b) next-to-adjacent stripes differ: c(i) != c(i+2)
//       [a vertex's two perpendicular neighbors must be distinct]
//   (c) first vs last stripe differ:    c(1) != c(len)
//       [both touch the buffer class / the fragile seed]
//   (d) the buffer color avoids {c(1), c(2), c(len-1), c(len)}
//       [forest: no buffer-stripe ladder; distinctness at the buffer's
//        neighbors; and *seed protection*: the seed next to the pendant
//        must not see three equal foreign colors, or the SMP rule erodes
//        it - the non-monotone failure mode found during reproduction].
//
// With palette {2,3,4} a strict period-3 sequence satisfies (a)-(d) iff
// len == 0 (mod 3) is false... precisely iff the perpendicular dimension
// is 0 (mod 3); otherwise one extra color patches the tail. The chooser
// below finds the cheapest valid plan deterministically.

struct StripePlan {
    std::vector<Color> seq;  ///< c(1..len), 0-indexed
    Color buffer = kUnset;   ///< c0
    Color colors_used = 0;   ///< distinct non-k colors in seq + buffer
};

/// Palette entry p (0-based) skipping the seed color k.
Color nonk_color(Color k, std::uint32_t p) {
    Color c = static_cast<Color>(1 + p);
    if (c >= k) c = static_cast<Color>(c + 1);
    return c;
}

bool plan_valid(const std::vector<Color>& seq, Color buffer) {
    const std::size_t len = seq.size();
    for (std::size_t i = 0; i + 1 < len; ++i) {
        if (seq[i] == seq[i + 1]) return false;
    }
    for (std::size_t i = 0; i + 2 < len; ++i) {
        if (seq[i] == seq[i + 2]) return false;
    }
    if (len >= 2 && seq.front() == seq.back()) return false;
    if (buffer == seq.front() || buffer == seq.back()) return false;
    if (len >= 2 && (buffer == seq[1] || buffer == seq[len - 2])) return false;
    return true;
}

Color count_plan_colors(const std::vector<Color>& seq, Color buffer) {
    bool seen[256] = {};
    seen[buffer] = true;
    Color n = 1;
    for (const Color c : seq) {
        if (!seen[c]) {
            seen[c] = true;
            ++n;
        }
    }
    return n;
}

/// Deterministic cheapest valid plan for a given stripe count, over a
/// palette of up to 5 non-k colors (len == 4 forces a rainbow sequence,
/// the one case needing the fifth; see DESIGN.md section 4). Strategy:
/// period-3 prefix (either phase) plus an exhaustively patched tail of up
/// to 4 entries; tiny lengths are enumerated outright. Always succeeds.
StripePlan choose_stripe_plan(Color k, std::size_t len) {
    DYNAMO_REQUIRE(len >= 1, "stripe plan needs at least one stripe");
    constexpr std::size_t kPalette = 5;
    Color palette[kPalette];
    for (std::size_t p = 0; p < kPalette; ++p) palette[p] = nonk_color(k, p);

    std::optional<StripePlan> best;
    const auto consider = [&](const std::vector<Color>& seq) {
        for (const Color buffer : palette) {
            if (!plan_valid(seq, buffer)) continue;
            const Color used = count_plan_colors(seq, buffer);
            if (!best || used < best->colors_used) {
                best = StripePlan{seq, buffer, used};
            }
            break;  // lower palette index preferred; cost is identical
        }
    };

    // Enumerate `positions` palette digits appended after a fixed prefix.
    const auto enumerate_suffix = [&](std::vector<Color>& seq, std::size_t positions) {
        if (positions == 0) {
            consider(seq);
            return;
        }
        DYNAMO_ASSERT(positions <= 6, "suffix enumeration capped at 6 positions");
        const std::size_t base = seq.size() - positions;
        std::array<std::uint8_t, 6> digits{};
        for (;;) {
            for (std::size_t t = 0; t < positions; ++t) seq[base + t] = palette[digits[t]];
            consider(seq);
            std::size_t idx = positions;
            while (idx > 0) {
                if (++digits[idx - 1] < kPalette) break;
                digits[idx - 1] = 0;
                --idx;
            }
            if (idx == 0) break;
        }
    };

    if (len <= 6) {
        std::vector<Color> seq(len, palette[0]);
        enumerate_suffix(seq, len);  // full enumeration, at most 5^6
    } else {
        const Color phases[2][3] = {{palette[0], palette[1], palette[2]},
                                    {palette[0], palette[2], palette[1]}};
        for (const auto& phase : phases) {
            for (std::size_t tail = 0; tail <= 4; ++tail) {
                std::vector<Color> seq(len);
                for (std::size_t i = 0; i < len - tail; ++i) seq[i] = phase[i % 3];
                enumerate_suffix(seq, tail);
                if (best && best->colors_used == 3) break;  // cannot do better
            }
            if (best && best->colors_used == 3) break;
        }
    }

    DYNAMO_ENSURE(best.has_value(), "no stripe plan found (unexpected for len >= 1)");
    return *best;
}

} // namespace

std::vector<VertexId> theorem2_seeds(const Torus& torus) {
    DYNAMO_REQUIRE(torus.topology() == Topology::ToroidalMesh,
                   "Theorem 2 targets the toroidal mesh");
    std::vector<VertexId> seeds;
    for (std::uint32_t i = 0; i < torus.rows(); ++i) seeds.push_back(torus.index(i, 0));
    // Row 0 "with one node less": (0, n-1) is left out; the proof of
    // Theorem 2 has it recolor at the very first step.
    for (std::uint32_t j = 1; j + 1 < torus.cols(); ++j) seeds.push_back(torus.index(0, j));
    return seeds;
}

std::vector<VertexId> full_cross_seeds(const Torus& torus) {
    std::vector<VertexId> seeds;
    for (std::uint32_t i = 0; i < torus.rows(); ++i) seeds.push_back(torus.index(i, 0));
    for (std::uint32_t j = 1; j < torus.cols(); ++j) seeds.push_back(torus.index(0, j));
    return seeds;
}

std::vector<VertexId> theorem4_seeds(const Torus& torus) {
    std::vector<VertexId> seeds;
    for (std::uint32_t j = 0; j < torus.cols(); ++j) seeds.push_back(torus.index(0, j));
    seeds.push_back(torus.index(1, 0));
    return seeds;
}

std::vector<VertexId> theorem6_seeds(const Torus& torus) {
    if (torus.cols() <= torus.rows()) return theorem4_seeds(torus);  // N = n
    std::vector<VertexId> seeds;  // N = m: full column 0 + (0, 1)
    for (std::uint32_t i = 0; i < torus.rows(); ++i) seeds.push_back(torus.index(i, 0));
    seeds.push_back(torus.index(0, 1));
    return seeds;
}

Configuration build_theorem2_configuration(const Torus& torus, Color k) {
    DYNAMO_REQUIRE(torus.topology() == Topology::ToroidalMesh,
                   "Theorem 2 targets the toroidal mesh");
    DYNAMO_REQUIRE(k >= 1, "colors are 1-based");
    const std::uint32_t m = torus.rows(), n = torus.cols();

    // Theorem 2 allows either orientation ("a k-colored column (row) and a
    // k-colored row (column) with one node less"); pick the one whose
    // stripe plan needs fewer colors - 4 total iff m or n is 0 (mod 3).
    const StripePlan row_plan = choose_stripe_plan(k, m - 1);   // stripes = rows 1..m-1
    const StripePlan col_plan = choose_stripe_plan(k, n - 1);   // stripes = cols 1..n-1
    const bool use_rows = row_plan.colors_used <= col_plan.colors_used;
    const StripePlan& plan = use_rows ? row_plan : col_plan;

    Configuration cfg;
    cfg.k = k;
    cfg.field = make_field(torus.size(), kUnset);

    if (use_rows) {
        // Seeds: full column 0 + row 0 minus the pendant (0, n-1).
        cfg.seeds = theorem2_seeds(torus);
        paint(cfg.field, cfg.seeds, k);
        for (std::uint32_t i = 1; i < m; ++i) {
            for (std::uint32_t j = 1; j < n; ++j) {
                cfg.field[torus.index(i, j)] = plan.seq[i - 1];
            }
        }
        cfg.field[torus.index(0, n - 1)] = plan.buffer;  // the pendant vertex
    } else {
        // Transposed orientation: full row 0 + column 0 minus (m-1, 0).
        for (std::uint32_t j = 0; j < n; ++j) cfg.seeds.push_back(torus.index(0, j));
        for (std::uint32_t i = 1; i + 1 < m; ++i) cfg.seeds.push_back(torus.index(i, 0));
        paint(cfg.field, cfg.seeds, k);
        for (std::uint32_t j = 1; j < n; ++j) {
            for (std::uint32_t i = 1; i < m; ++i) {
                cfg.field[torus.index(i, j)] = plan.seq[j - 1];
            }
        }
        cfg.field[torus.index(m - 1, 0)] = plan.buffer;
    }

    cfg.colors_used = static_cast<Color>(distinct_colors(cfg.field));
    return cfg;
}

Configuration build_full_cross_configuration(const Torus& torus, Color k) {
    DYNAMO_REQUIRE(torus.topology() == Topology::ToroidalMesh,
                   "the full-cross wave analysis targets the toroidal mesh");
    const std::uint32_t m = torus.rows(), n = torus.cols();

    Configuration cfg;
    cfg.k = k;
    cfg.seeds = full_cross_seeds(torus);
    cfg.field = make_field(torus.size(), kUnset);
    paint(cfg.field, cfg.seeds, k);

    // With the full cross there is no pendant and no fragile seed: plain
    // period-3 row stripes satisfy every condition for all m, n (4 colors).
    for (std::uint32_t i = 1; i < m; ++i) {
        const Color c = nonk_color(k, (i - 1) % 3);
        for (std::uint32_t j = 1; j < n; ++j) cfg.field[torus.index(i, j)] = c;
    }

    cfg.colors_used = static_cast<Color>(distinct_colors(cfg.field));
    return cfg;
}

Configuration build_theorem4_configuration(const Torus& torus, Color k) {
    DYNAMO_REQUIRE(torus.topology() != Topology::ToroidalMesh,
                   "Theorem 4/6 row constructions target cordalis/serpentinus");
    const std::uint32_t m = torus.rows(), n = torus.cols();
    DYNAMO_REQUIRE(m >= 3, "row construction needs m >= 3 (column 0 buffer)");

    Configuration cfg;
    cfg.k = k;
    cfg.seeds = theorem4_seeds(torus);
    cfg.field = make_field(torus.size(), kUnset);
    paint(cfg.field, cfg.seeds, k);

    // Column stripes perpendicular to the seed row: column j (rows 1..m-1)
    // holds c(j); each is an induced path terminated above and below by
    // seed row 0. Column 0 (rows 2..m-1) is the buffer class: its cells'
    // horizontal neighbors are (i-1, n-1) and (i, 1) - the wrap-around
    // spiral links - whose colors c(n-1) != c(1) the plan guarantees, so
    // the two row-waves meeting at column 0 never produce a 2+2 tie (the
    // stall that broke the Figure 6 timing in our first closed form).
    const StripePlan plan = choose_stripe_plan(k, n - 1);
    for (std::uint32_t j = 1; j < n; ++j) {
        for (std::uint32_t i = 1; i < m; ++i) {
            cfg.field[torus.index(i, j)] = plan.seq[j - 1];
        }
    }
    for (std::uint32_t i = 2; i < m; ++i) cfg.field[torus.index(i, 0)] = plan.buffer;

    cfg.colors_used = static_cast<Color>(distinct_colors(cfg.field));
    return cfg;
}

Configuration build_theorem6_configuration(const Torus& torus, Color k) {
    DYNAMO_REQUIRE(torus.topology() == Topology::TorusSerpentinus,
                   "Theorem 6 targets the torus serpentinus");
    const std::uint32_t m = torus.rows(), n = torus.cols();
    if (n <= m) return build_theorem4_configuration(torus, k);  // N = n

    // N = m: full column 0 plus (0, 1). Row stripes perpendicular to the
    // seed column: row i (columns 1..n-1) holds r(i), an induced path
    // terminated left by seed column 0 and right by the spiral wrap into
    // column 0. Row 0 (columns 2..n-1) is the buffer class; the serpentine
    // vertical wrap (m-1, j) -> (0, j-1) plays the role the horizontal
    // spiral plays in Theorem 4, with identical constraints.
    DYNAMO_REQUIRE(n >= 3, "column construction needs n >= 3 (row 0 buffer)");

    Configuration cfg;
    cfg.k = k;
    cfg.seeds = theorem6_seeds(torus);
    cfg.field = make_field(torus.size(), kUnset);
    paint(cfg.field, cfg.seeds, k);

    const StripePlan plan = choose_stripe_plan(k, m - 1);
    for (std::uint32_t i = 1; i < m; ++i) {
        for (std::uint32_t j = 1; j < n; ++j) {
            cfg.field[torus.index(i, j)] = plan.seq[i - 1];
        }
    }
    for (std::uint32_t j = 2; j < n; ++j) cfg.field[torus.index(0, j)] = plan.buffer;

    cfg.colors_used = static_cast<Color>(distinct_colors(cfg.field));
    return cfg;
}

Configuration build_minimum_dynamo(const Torus& torus, Color k) {
    switch (torus.topology()) {
        case Topology::ToroidalMesh: return build_theorem2_configuration(torus, k);
        case Topology::TorusCordalis: return build_theorem4_configuration(torus, k);
        case Topology::TorusSerpentinus: return build_theorem6_configuration(torus, k);
    }
    DYNAMO_REQUIRE(false, "unknown topology");
    return {};
}

Configuration build_fig3_blocked_configuration(const Torus& torus, Color k) {
    DYNAMO_REQUIRE(torus.rows() >= 6 && torus.cols() >= 6,
                   "need m, n >= 6 to place the hostile block away from the cross");
    Configuration cfg = build_theorem2_configuration(torus, k);

    // Overwrite a 2x2 square in the interior with one foreign color: each of
    // its vertices keeps two neighbors of its own color, forming an
    // invariant block (Definition 4 for that color), so the k-wave can
    // never complete - the black nodes are not a dynamo.
    const std::uint32_t bi = torus.rows() / 2, bj = torus.cols() / 2;
    const Color hostile = nonk_color(k, 0);
    for (std::uint32_t di = 0; di < 2; ++di) {
        for (std::uint32_t dj = 0; dj < 2; ++dj) {
            cfg.field[torus.index(bi + di, bj + dj)] = hostile;
        }
    }
    cfg.colors_used = static_cast<Color>(distinct_colors(cfg.field));
    return cfg;
}

Configuration build_fig4_stalled_configuration(const Torus& torus, Color k) {
    DYNAMO_REQUIRE(torus.topology() == Topology::ToroidalMesh,
                   "the stalled-stripes counterexample targets the toroidal mesh");
    Configuration cfg;
    cfg.k = k;
    cfg.field = make_field(torus.size(), kUnset);
    for (std::uint32_t i = 0; i < torus.rows(); ++i) {
        cfg.seeds.push_back(torus.index(i, 0));
        cfg.field[torus.index(i, 0)] = k;
        for (std::uint32_t j = 1; j < torus.cols(); ++j) {
            // Vertically monochromatic stripes alternating over two foreign
            // colors: every vertex sees its own color twice vertically, so
            // the SMP rule yields either a 2+2 tie or its own plurality -
            // nothing ever recolors.
            cfg.field[torus.index(i, j)] = nonk_color(k, j % 2);
        }
    }
    cfg.colors_used = static_cast<Color>(distinct_colors(cfg.field));
    return cfg;
}

} // namespace dynamo
