#include "telescope/capture.h"

#include <map>

namespace exiot::telescope {

Result<std::vector<CapturedHour>> capture_to_files(
    TrafficSynthesizer& synth, TimeMicros t0, TimeMicros t1,
    const std::filesystem::path& dir, const CollectionModel& model) {
  trace::HourlyTraceWriter writer(dir);
  std::map<std::int64_t, std::size_t> counts;
  Status status = Ok{};
  synth.emit_batches(t0, t1, 1024, [&](const net::PacketBatch& batch) {
    for (std::size_t i = 0; i < batch.size() && status.ok(); ++i) {
      status = writer.add(batch[i]);
      counts[batch[i].ts / kMicrosPerHour]++;
    }
  });
  if (!status.ok()) return status.error();
  if (auto s = writer.close(); !s.ok()) return s.error();

  std::vector<CapturedHour> out;
  for (const auto& [hour, count] : counts) {
    CapturedHour ch;
    ch.hour_index = hour;
    ch.file = dir / trace::HourlyTraceWriter::file_name(hour);
    ch.ready_time = model.file_ready_time(hour);
    ch.packet_count = count;
    out.push_back(std::move(ch));
  }
  return out;
}

}  // namespace exiot::telescope
