// dynamo/core/run/backend.cpp
//
// Backend name mapping (see backend.hpp). The table is the single source
// of truth: backend_name, backend_from_name, and known_backend_names all
// read it, so adding a backend is a one-line change here.
#include "core/run/backend.hpp"

namespace dynamo {

namespace {

struct BackendName {
    Backend backend;
    const char* name;
};

/// Sorted by name so known_backend_names() lists them alphabetically.
constexpr BackendName kBackendNames[] = {
    {Backend::Active, "active"},     {Backend::Auto, "auto"},
    {Backend::BitPlane, "bitplane"}, {Backend::Generic, "generic"},
    {Backend::Packed, "packed"},
};

} // namespace

const char* backend_name(Backend b) noexcept {
    for (const BackendName& entry : kBackendNames) {
        if (entry.backend == b) return entry.name;
    }
    return "?";
}

std::optional<Backend> backend_from_name(std::string_view name) noexcept {
    for (const BackendName& entry : kBackendNames) {
        if (name == entry.name) return entry.backend;
    }
    return std::nullopt;
}

std::string known_backend_names() {
    std::string names;
    for (const BackendName& entry : kBackendNames) {
        if (!names.empty()) names += ", ";
        names += entry.name;
    }
    return names;
}

} // namespace dynamo
