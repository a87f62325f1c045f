#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace pcnn::obs {
class Counter;
}  // namespace pcnn::obs

namespace pcnn::tn {

class Network;

/// Declarative description of the hardware faults to inject into a
/// tn::Network. Real TrueNorth deployments must tolerate dead cores,
/// dropped spike deliveries, stuck neurons, and flipped synaptic-weight
/// bits; this plan makes each of those injectable deterministically (the
/// whole realization -- which cores die, which neurons stick, which bits
/// flip, and the per-delivery drop stream -- is a pure function of `seed`
/// and the network's core count), so degradation experiments are exactly
/// reproducible.
///
/// Where each fault class intercepts the tick loop (see DESIGN.md 5d):
///  - dead cores: spike deliveries targeting the core are discarded and
///    the core never ticks, so none of its neurons ever fire;
///  - spike drop: every delivery (external inputs and routed neuron
///    outputs alike) is independently discarded with spikeDropProb,
///    modelling flaky inter-core links;
///  - stuck-at-on neurons: emit a spike every tick regardless of their
///    membrane state (routed and recorded like a real firing);
///  - stuck-at-off neurons: their genuine firings are suppressed before
///    routing;
///  - weight bit-flips: applied once when the plan is materialized -- each
///    synaptic LUT entry independently gets one random bit of its 9-bit
///    two's-complement encoding flipped with weightFlipProb.
struct FaultPlan {
  double spikeDropProb = 0.0;   ///< per-delivery drop probability, [0, 1]
  int deadCores = 0;            ///< cores disabled outright
  int stuckOnNeurons = 0;       ///< neurons (on live cores) firing every tick
  int stuckOffNeurons = 0;      ///< neurons (on live cores) never firing
  double weightFlipProb = 0.0;  ///< per-LUT-entry single-bit-flip probability
  std::uint64_t seed = 1;       ///< seeds selection and the drop stream

  /// True when the plan injects anything at all. A plan with any() == false
  /// is never attached, so a zero plan is bitwise-identical to no plan.
  bool any() const {
    return spikeDropProb > 0.0 || deadCores > 0 || stuckOnNeurons > 0 ||
           stuckOffNeurons > 0 || weightFlipProb > 0.0;
  }

  /// Canonical "drop=0.01,dead_cores=3,seed=7" form (round-trips through
  /// parseFaultPlan).
  std::string toString() const;
};

/// Parses the PCNN_FAULTS mini-language: comma-separated key=value pairs
/// with keys drop, dead_cores, stuck_on, stuck_off, weight_flip, seed.
/// Example: "drop=0.01,dead_cores=3,seed=7". Unknown keys, bad numbers,
/// and out-of-range probabilities are typed errors naming the offending
/// token.
StatusOr<FaultPlan> parseFaultPlan(const std::string& spec);

/// The plan configured via the PCNN_FAULTS environment variable, parsed
/// once per process. nullopt when the variable is unset or empty. An
/// invalid value is reported to stderr once and then ignored (a broken
/// fault spec must not silently pass as "no faults" without a trace, but
/// it also must not take the process down).
const std::optional<FaultPlan>& envFaultPlan();

/// Monotonic tallies of injected fault events. Kept process-wide and
/// always counted (independent of the obs metrics gate, which is usually
/// off) so DegradationReport can attribute observed quality loss to fault
/// activity in any run. The same events also feed the gated obs counters
/// tn.faults.* for the metrics export.
struct FaultCounts {
  long droppedSpikes = 0;       ///< deliveries lost to spikeDropProb
  long deadCoreDrops = 0;       ///< deliveries targeting a dead core
  long stuckOnSpikes = 0;       ///< spikes invented by stuck-at-on neurons
  long stuckOffSuppressed = 0;  ///< genuine firings eaten by stuck-at-off
  long weightFlips = 0;         ///< LUT entries corrupted at materialize

  /// Saturating sum: long-lived serving processes merge per-frame
  /// DegradationReports indefinitely, so fields (and their sum) clamp at
  /// the type maximum instead of wrapping into signed-overflow UB.
  long total() const {
    long sum = 0;
    for (long field : {droppedSpikes, deadCoreDrops, stuckOnSpikes,
                       stuckOffSuppressed, weightFlips}) {
      if (field > 0 && sum > std::numeric_limits<long>::max() - field) {
        return std::numeric_limits<long>::max();
      }
      sum += field;
    }
    return sum;
  }
  FaultCounts operator-(const FaultCounts& other) const {
    return {droppedSpikes - other.droppedSpikes,
            deadCoreDrops - other.deadCoreDrops,
            stuckOnSpikes - other.stuckOnSpikes,
            stuckOffSuppressed - other.stuckOffSuppressed,
            weightFlips - other.weightFlips};
  }
};

/// Current process-wide totals (sum over every FaultModel ever attached).
FaultCounts globalFaultCounts();

/// Runtime realization of a FaultPlan against one Network. Owned by the
/// Network (see Network::setFaultPlan); exposed so tests and reports can
/// inspect the concrete fault set.
///
/// Determinism: dead-core and stuck-neuron selection and the weight-flip
/// pattern depend only on (plan.seed, coreCount); the drop stream is
/// consumed exclusively from the Network's sequential phases (delivery and
/// routing), so RunResults are bitwise-identical for any thread count.
class FaultModel {
 public:
  explicit FaultModel(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  /// (Re)selects dead cores and stuck neurons for the network's current
  /// core count and applies weight bit-flips to cores not yet flipped.
  /// Called lazily by Network::run() whenever the core count changed since
  /// the last materialization.
  void materialize(Network& network);
  bool materializedFor(int coreCount) const {
    return materializedCores_ == coreCount;
  }

  bool coreDead(int core) const {
    return static_cast<std::size_t>(core) < deadCore_.size() &&
           deadCore_[static_cast<std::size_t>(core)] != 0;
  }
  /// Records a delivery discarded because its target core is dead.
  void countDeadCoreDrop();
  /// Consumes the drop stream: true when this delivery is lost. Must only
  /// be called from sequential network phases.
  bool dropDelivery();
  /// True when the core carries stuck-at neurons (cheap pre-check).
  bool hasStuckNeurons(int core) const {
    return static_cast<std::size_t>(core) < stuckAny_.size() &&
           stuckAny_[static_cast<std::size_t>(core)] != 0;
  }
  /// Rewrites a core's fired list in place: suppresses stuck-at-off
  /// neurons and injects stuck-at-on neurons (keeping ascending neuron
  /// order, so downstream routing order is deterministic).
  void applyStuckNeurons(int core, std::vector<int>& fired);

  /// Fault events injected through this model so far.
  const FaultCounts& counts() const { return counts_; }

  /// Concrete fault set (valid after materialize).
  std::vector<int> deadCoreIndices() const;
  const std::vector<std::vector<int>>& stuckOnByCore() const {
    return stuckOn_;
  }
  const std::vector<std::vector<int>>& stuckOffByCore() const {
    return stuckOff_;
  }

 private:
  void applyWeightFlips(Network& network, int firstCore, int endCore);

  FaultPlan plan_;
  Rng dropRng_;
  int materializedCores_ = -1;
  int flippedCores_ = 0;  ///< cores whose weights were already corrupted
  std::vector<char> deadCore_;
  std::vector<char> stuckAny_;
  std::vector<std::vector<int>> stuckOn_;   ///< per core, ascending
  std::vector<std::vector<int>> stuckOff_;  ///< per core, ascending
  FaultCounts counts_;
  std::vector<int> scratch_;  ///< merge buffer for applyStuckNeurons
  /// Gated obs counters, resolved once (tn.faults.*).
  obs::Counter* obsDropped_;
  obs::Counter* obsDeadDrops_;
  obs::Counter* obsStuckOn_;
  obs::Counter* obsStuckOff_;
  obs::Counter* obsFlips_;
};

}  // namespace pcnn::tn
