// Version of the simulated substrate's numeric model.
//
// A RunKey hashes a run's inputs only, so nothing in a key says which
// simulator produced a cached result.  The run store stamps this version
// into its header and sidelines a store written under any other version
// (DESIGN.md §10).  Bump the version whenever seeded run outputs change,
// on purpose or not: tests/sim_digest.cpp pins a digest of a dozen seeded
// runs to kSimModelDigest and fails until both are updated together.
#pragma once

#include <cstdint>

namespace acic::io {

/// v1 (stores without a stamp): per-flow progressive filling.
/// v2: path-class max-min solve with round-start freezing (DESIGN.md §16).
/// v3: per-class virtual clocks and finish tags; a flow's remaining bytes
///     are `tag - served` instead of a running subtraction (DESIGN.md §16).
inline constexpr const char* kSimModelVersion = "acic.sim.v3";

/// FNV-1a digest of every RunResult field of the pinned runs under
/// kSimModelVersion.
inline constexpr std::uint64_t kSimModelDigest = 0x4602a056cb3e1fd6ULL;

}  // namespace acic::io
