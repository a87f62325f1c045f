#pragma once

#include <iosfwd>

#include "common/status.hpp"
#include "svm/linear_svm.hpp"

namespace pcnn::svm {

/// Serialization of a trained linear SVM (weights + bias; the training
/// parameters ride along for provenance, a loaded model is inference-only
/// until retrained).
///
/// The wire format ("PSVM" v2) is a chunked binary container over the
/// shared io::Writer/io::Reader layer: bitwise-exact double round trips,
/// bounds-checked loads.

/// Status-returning save: kFailedPrecondition for an untrained model,
/// kDataLoss on write failure.
Status trySaveModel(const LinearSvm& model, std::ostream& out);

/// Bounds-checked load: a corrupt stream, or one without the PSVM magic,
/// yields kDataLoss, and a header declaring an implausibly large weight
/// vector yields kOutOfRange before anything is allocated.
StatusOr<LinearSvm> tryLoadModel(std::istream& in);

}  // namespace pcnn::svm
