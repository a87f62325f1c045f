#pragma once

#include <iosfwd>

#include "common/status.hpp"
#include "nn/sequential.hpp"

namespace pcnn::eedn {

/// Serialization of trained Eedn networks (TrinaryDense,
/// PartitionedDense, and SpikingThreshold layers).
///
/// The *structure* is not serialized -- loading requires a network built
/// with the same configuration (the usual construct-then-load pattern).
/// Hidden (float) weights are stored so that training can resume after a
/// round trip, not just the trinarized deployment values.
///
/// The wire format ("PEDN" v2) is a chunked binary container over the
/// shared io::Writer/io::Reader layer -- one chunk per layer,
/// bitwise-exact float round trips.

/// Status-returning save: kInvalidArgument for an unsupported layer type,
/// kDataLoss on write failure.
Status trySaveNetwork(const nn::Sequential& net, std::ostream& out);

/// Bounds-checked load into a pre-built network: every layer tag, shape
/// and group count is validated against the target structure, truncation
/// or a missing PEDN magic yields kDataLoss and a non-finite stored weight
/// yields kOutOfRange.
/// On failure the network may be partially overwritten (layers parsed
/// before the error keep the loaded values) -- reload or rebuild before
/// using it.
Status tryLoadNetwork(nn::Sequential& net, std::istream& in);

}  // namespace pcnn::eedn
