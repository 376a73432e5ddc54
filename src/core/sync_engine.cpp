// dynamo/core/sync_engine.cpp
//
// The reference engine's run loop, compiled once for every rule.
#include "core/sync_engine.hpp"

namespace dynamo {

RunResult run_reference(const grid::Torus& torus, const ColorField& initial, TableSweep sweep,
                        const RunOptions& options) {
    BasicSyncEngine engine(torus, initial, sweep);
    return run_to_terminal(engine, options);
}

} // namespace dynamo
