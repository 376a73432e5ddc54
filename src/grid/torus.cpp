#include "grid/torus.hpp"

namespace dynamo::grid {

const char* to_string(Topology t) noexcept {
    switch (t) {
        case Topology::ToroidalMesh: return "toroidal-mesh";
        case Topology::TorusCordalis: return "torus-cordalis";
        case Topology::TorusSerpentinus: return "torus-serpentinus";
    }
    return "unknown";
}

Topology topology_from_string(const std::string& name) {
    if (name == "mesh" || name == "toroidal-mesh") return Topology::ToroidalMesh;
    if (name == "cordalis" || name == "torus-cordalis") return Topology::TorusCordalis;
    if (name == "serpentinus" || name == "torus-serpentinus") return Topology::TorusSerpentinus;
    DYNAMO_REQUIRE(false, "unknown topology '" + name + "' (mesh|cordalis|serpentinus)");
    return {};
}

Torus::Torus(Topology topology, std::uint32_t rows, std::uint32_t cols)
    : topology_(topology), rows_(rows), cols_(cols) {
    DYNAMO_REQUIRE(rows >= 2 && cols >= 2,
                   "torus requires m, n >= 2 (got " + std::to_string(rows) + "x" +
                       std::to_string(cols) + ")");
    DYNAMO_REQUIRE(static_cast<std::uint64_t>(rows) * cols <= (1ULL << 31),
                   "torus too large for 32-bit vertex ids");
}

} // namespace dynamo::grid
