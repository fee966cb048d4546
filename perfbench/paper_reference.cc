// Held-out reference for paper_error_pct: the paper's 60 KB equivalent
// single-datagram throughputs, as tabulated in EXPERIMENTS.md.
//
// Only Figures 3 and 7 count as reference. The simulator's Micron P166
// primitive-operation costs are the paper's own Table 6 fits, used as
// calibration inputs, so agreement with Table 6 (or Table 7's model lines)
// would be circular. Figures 3 and 7 are outputs of the simulated system.
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/harness/experiment.h"
#include "workloads.h"

namespace perfbench {
namespace {

using genie::Semantics;

// EXPERIMENTS.md, "Figure 3 — end-to-end latency, early demultiplexing",
// paper column (Mbps at 60 KB).
double Fig3PaperMbps(Semantics s) {
  switch (s) {
    case Semantics::kCopy:
      return 78;
    case Semantics::kMove:
      return 121;
    case Semantics::kShare:
    case Semantics::kEmulatedCopy:
    case Semantics::kWeakMove:
      return 124;
    case Semantics::kEmulatedMove:
      return 126;
    case Semantics::kEmulatedWeakMove:
      return 128;
    case Semantics::kEmulatedShare:
      return 129;
  }
  return 0;
}

// EXPERIMENTS.md, "Figure 7 — unaligned pooled input": three clusters by
// copy count — copy (2 copies) 77, other application-allocated (1 copy)
// ~92, system-allocated (0 copies) ~121 Mbps.
double Fig7PaperMbps(Semantics s) {
  if (s == Semantics::kCopy) {
    return 77;
  }
  return genie::IsApplicationAllocated(s) ? 92 : 121;
}

}  // namespace

double ReferencePassMbps(PaperFigure figure, Semantics s) {
  genie::ExperimentConfig config;
  if (figure == PaperFigure::kFig7) {
    config.buffering = genie::InputBuffering::kPooled;
    config.dst_page_offset = 1000;
  }
  genie::Experiment experiment(config);
  const std::vector<std::uint64_t> lengths = {kPaperReferenceBytes};
  return experiment.Run(s, lengths).samples.at(0).throughput_mbps;
}

double PaperErrorPct(const std::function<double(PaperFigure, Semantics)>& simulated_mbps) {
  double sum = 0;
  int points = 0;
  for (const Semantics s : genie::kAllSemantics) {
    const double ref3 = Fig3PaperMbps(s);
    sum += std::abs(simulated_mbps(PaperFigure::kFig3, s) - ref3) / ref3;
    const double ref7 = Fig7PaperMbps(s);
    sum += std::abs(simulated_mbps(PaperFigure::kFig7, s) - ref7) / ref7;
    points += 2;
  }
  return 100.0 * sum / points;
}

}  // namespace perfbench
