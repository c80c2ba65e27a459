// Ablation: the paper's operational thresholds (>=100 packets, <=300 s
// inter-arrival, >=1 min duration) versus a bare TRW sequential test
// (which, on a darknet where every contact fails, accepts a scanner after
// just a handful of packets). The operational margins are what keep
// misconfiguration bursts out of the feed.
#include "bench_common.h"
#include "flow/trw.h"
#include "telescope/synthesizer.h"

namespace {

using namespace exiot;
using namespace exiot::benchx;

struct Outcome {
  int true_scanners_flagged = 0;
  int misconfig_flagged = 0;
  int victims_flagged = 0;
};

Outcome run_with(const Sim& sim, const flow::DetectorConfig& config) {
  Outcome outcome;
  flow::DetectorEvents events;
  events.on_scanner = [&](const flow::FlowSummary& summary) {
    const inet::Host* host = sim.population.find(summary.src);
    if (host == nullptr) return;
    switch (host->cls) {
      case inet::HostClass::kInfectedIot:
      case inet::HostClass::kInfectedGeneric:
      case inet::HostClass::kBenignScanner:
        ++outcome.true_scanners_flagged;
        break;
      case inet::HostClass::kMisconfigured:
        ++outcome.misconfig_flagged;
        break;
      case inet::HostClass::kBackscatterVictim:
        ++outcome.victims_flagged;
        break;
    }
  };
  flow::FlowDetector detector(config, std::move(events));
  telescope::TrafficSynthesizer synth(sim.population, aperture());
  for (int hour = 0; hour < 24; ++hour) {
    synth.emit(hour * kMicrosPerHour, (hour + 1) * kMicrosPerHour,
               [&](const net::Packet& p) { detector.process(p); });
    detector.end_of_hour((hour + 1) * kMicrosPerHour);
  }
  detector.finish();
  return outcome;
}

}  // namespace

int main() {
  const double scale = env_double("EXIOT_SCALE", 0.3);
  heading("Ablation: operational thresholds vs bare TRW (scale " +
          fmt("%.2f", scale) + ")");

  Sim sim = make_sim(scale, 1);
  const auto counts = sim.population.count_by_class();
  const int scanners =
      counts.at(inet::HostClass::kInfectedIot) +
      counts.at(inet::HostClass::kInfectedGeneric) +
      counts.at(inet::HostClass::kBenignScanner);
  const int misconfig = counts.at(inet::HostClass::kMisconfigured);

  // The bare sequential test: on a telescope every first contact fails, so
  // TRW accepts H1 after a fixed number of packets — far below 100.
  const int trw_packets = flow::TrwState::failures_to_detect(flow::TrwParams{});
  std::printf("\n  bare TRW accepts a scanner after %d failed contacts\n",
              trw_packets);

  flow::DetectorConfig operational;  // Paper defaults.
  flow::DetectorConfig bare;
  bare.scanner_packet_threshold = trw_packets;
  bare.min_duration = 0;
  flow::DetectorConfig no_duration;  // 100 packets but no 1-min floor.
  no_duration.min_duration = 0;

  struct Variant {
    const char* name;
    flow::DetectorConfig config;
  } variants[] = {{"operational (100 pkt / 300 s / 1 min)", operational},
                  {"bare TRW (no margins)", bare},
                  {"100 pkt, no duration floor", no_duration}};

  std::printf("\n  population: %d real scanners, %d misconfigured "
              "bursts\n\n",
              scanners, misconfig);
  std::printf("  %-38s %18s %22s\n", "detector variant", "scanners flagged",
              "misconfig false flags");
  for (const auto& variant : variants) {
    const Outcome outcome = run_with(sim, variant.config);
    std::printf("  %-38s %10d (%5.1f%%) %12d (%5.1f%%)\n", variant.name,
                outcome.true_scanners_flagged,
                100.0 * outcome.true_scanners_flagged / scanners,
                outcome.misconfig_flagged,
                100.0 * outcome.misconfig_flagged / misconfig);
  }
  std::printf("\n  victims never pass any variant (backscatter is filtered "
              "by flags first).\n");
  return 0;
}
