#include "pipeline/durability.h"

#include <utility>

#include "common/log.h"

namespace exiot::pipeline {

std::string encode_publish_payload(const AnnotateResult& result) {
  json::Value doc;
  doc["record"] = result.record.to_json();
  json::Array features;
  features.reserve(result.features.size());
  for (double f : result.features) features.emplace_back(f);
  doc["features"] = std::move(features);
  doc["training_label"] = result.training_label;
  doc["annotate_start"] = result.annotate_start;
  doc["published"] = result.published;
  doc["ended"] = result.ended;
  doc["end_ts"] = result.end_ts;
  return doc.dump();
}

Result<AnnotateResult> decode_publish_payload(const std::string& payload) {
  auto parsed = json::parse(payload);
  if (!parsed.ok()) return parsed.error();
  const json::Value& doc = parsed.value();
  const json::Value* record = doc.find("record");
  const json::Value* features = doc.find("features");
  if (record == nullptr || features == nullptr || !features->is_array()) {
    return make_error("wal_payload", "malformed publish payload");
  }
  AnnotateResult result;
  result.record = feed::CtiRecord::from_json(*record);
  result.features.reserve(features->as_array().size());
  for (const json::Value& f : features->as_array()) {
    if (!f.is_number()) {
      return make_error("wal_payload", "non-numeric feature");
    }
    result.features.push_back(f.as_double());
  }
  result.training_label =
      static_cast<int>(doc.get_int("training_label", -1));
  result.annotate_start = doc.get_int("annotate_start");
  result.published = doc.get_int("published");
  result.ended = doc.get_bool("ended");
  result.end_ts = doc.get_int("end_ts");
  return result;
}

Durability::Durability(DurabilityConfig config, DurableState state,
                       ReplayHooks hooks, obs::MetricsRegistry* metrics)
    : config_(std::move(config)),
      state_(state),
      hooks_(std::move(hooks)),
      snapshots_(config_.data_dir) {
  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  replayed_g_ = &reg.gauge("exiot_wal_replayed_records",
                           "WAL records applied during the last recovery.");
  snapshot_writes_c_ = &reg.counter("exiot_snapshot_writes_total",
                                    "Durability snapshots written.");
  snapshot_index_g_ =
      &reg.gauge("exiot_snapshot_last_wal_index",
                 "WAL index covered by the newest snapshot.");
  metrics_ = metrics;
}

Status Durability::apply_record(const store::WalRecord& record) {
  switch (static_cast<WalRecordType>(record.type)) {
    case WalRecordType::kPublish: {
      auto result = decode_publish_payload(record.payload);
      if (!result.ok()) return result.error();
      hooks_.apply_publish(result.value());
      return Ok{};
    }
    case WalRecordType::kMarkEnded: {
      auto parsed = json::parse(record.payload);
      if (!parsed.ok()) return parsed.error();
      const json::Value& doc = parsed.value();
      hooks_.apply_mark_ended(
          Ipv4(static_cast<std::uint32_t>(doc.get_int("src"))),
          doc.get_int("scan_end"), doc.get_int("at"));
      return Ok{};
    }
    case WalRecordType::kHourEnd: {
      auto parsed = json::parse(record.payload);
      if (!parsed.ok()) return parsed.error();
      const json::Value& doc = parsed.value();
      hooks_.apply_hour_end(doc.get_int("hour"),
                            doc.get_int("processing_end"));
      return Ok{};
    }
  }
  return make_error("wal_payload",
                    "unknown WAL record type " +
                        std::to_string(static_cast<int>(record.type)) +
                        " at index " + std::to_string(record.index));
}

Result<RecoveryInfo> Durability::recover() {
  // A fresh deployment starts with no data directory at all.
  std::error_code ec;
  std::filesystem::create_directories(config_.data_dir, ec);
  if (ec) {
    return make_error("data_dir", "cannot create " +
                                      config_.data_dir.string() + ": " +
                                      ec.message());
  }

  // 1. Newest valid snapshot, if any.
  auto snapshot = snapshots_.load_latest();
  if (!snapshot.ok()) return snapshot.error();
  std::uint64_t replay_from = 0;
  if (snapshot.value().has_value()) {
    const store::LoadedSnapshot& loaded = *snapshot.value();
    const json::Value* feed = loaded.state.find("feed");
    const json::Value* trainer = loaded.state.find("trainer");
    const json::Value* outbox = loaded.state.find("outbox");
    if (feed == nullptr || trainer == nullptr || outbox == nullptr ||
        !outbox->is_array()) {
      return make_error("snapshot_state",
                        "snapshot missing feed/trainer/outbox sections");
    }
    if (Status s = state_.feed.restore_state(*feed); !s.ok()) {
      return s.error();
    }
    if (Status s = state_.trainer.restore_state(*trainer); !s.ok()) {
      return s.error();
    }
    if (!state_.outbox.empty()) {
      return make_error("snapshot_state",
                        "recovery requires an empty outbox");
    }
    for (const json::Value& mail : outbox->as_array()) {
      feed::EmailMessage message;
      message.to = mail.get_string("to");
      message.subject = mail.get_string("subject");
      message.body = mail.get_string("body");
      message.sent_at = mail.get_int("sent_at");
      state_.outbox.push_back(std::move(message));
    }
    replay_from = loaded.wal_index;
    recovery_.snapshot_wal_index = loaded.wal_index;
  } else if (state_.feed.total_records() != 0 ||
             state_.trainer.window_size() != 0 ||
             state_.trainer.models_trained() != 0 ||
             !state_.outbox.empty()) {
    // Cold replay targets must be empty too; a non-empty store would make
    // the WAL apply twice.
    return make_error("recover_not_empty",
                      "recovery requires empty feed/trainer/outbox state");
  }

  // 2. Replay the WAL tail through the live commit hooks. Opening the
  // writer first would truncate a torn tail before we had a chance to
  // refuse on real (non-tail) corruption, so read first.
  auto scan = store::read_wal(config_.data_dir, replay_from);
  if (!scan.ok()) return scan.error();
  if (scan.value().next_index < replay_from) {
    return make_error("wal_behind_snapshot",
                      "WAL ends at index " +
                          std::to_string(scan.value().next_index) +
                          " but the snapshot covers " +
                          std::to_string(replay_from) +
                          " — segments are missing");
  }
  for (const store::WalRecord& record : scan.value().records) {
    if (Status s = apply_record(record); !s.ok()) return s.error();
    ++recovery_.replayed_records;
  }
  recovery_.truncated_tail = scan.value().truncated_tail;

  // 3. Open the writer (truncates the torn tail, if any) and arm the
  // suppression window for the deterministic re-run.
  auto writer =
      store::WalWriter::open(config_.data_dir,
                             store::WalOptions{config_.wal_segment_bytes,
                                               config_.wal_fsync},
                             metrics_);
  if (!writer.ok()) return writer.error();
  wal_ = std::move(writer).take();
  recovery_.recovered_index = wal_->next_index();
  replayed_g_->set(static_cast<double>(recovery_.replayed_records));
  snapshot_index_g_->set(static_cast<double>(recovery_.snapshot_wal_index));
  if (recovery_.recovered_index > 0) {
    EXIOT_LOG(LogLevel::kInfo, "durability",
              "recovered " + std::to_string(recovery_.recovered_index) +
                  " commits (snapshot through " +
                  std::to_string(recovery_.snapshot_wal_index) +
                  ", replayed " +
                  std::to_string(recovery_.replayed_records) + ")" +
                  (recovery_.truncated_tail ? "; torn tail truncated"
                                            : ""));
  }
  return recovery_;
}

// Precondition: caught_up() — the log_*() wrappers consume suppressed
// commits before encoding a payload at all.
bool Durability::advance_or_append(WalRecordType type,
                                   const std::string& payload) {
  if (wal_ != nullptr && !append_failed_) {
    auto appended =
        wal_->append(static_cast<std::uint8_t>(type), payload);
    if (!appended.ok()) {
      // Keep serving from memory; the WAL is now incomplete, so say so
      // once, loudly, rather than failing every commit.
      append_failed_ = true;
      EXIOT_LOG(LogLevel::kError, "durability",
                "WAL append failed, log disabled for this run: " +
                    appended.error().message);
    } else if (commit_probe_) {
      commit_probe_(appended.value());
    }
  }
  ++commit_index_;
  return true;
}

bool Durability::log_publish(const std::string& payload) {
  if (commit_index_ < recovery_.recovered_index) {
    ++commit_index_;
    return false;
  }
  return advance_or_append(WalRecordType::kPublish, payload);
}

bool Durability::log_mark_ended(Ipv4 src, TimeMicros scan_end,
                                TimeMicros at) {
  if (commit_index_ < recovery_.recovered_index) {
    ++commit_index_;
    return false;
  }
  json::Value doc;
  doc["src"] = src.value();
  doc["scan_end"] = scan_end;
  doc["at"] = at;
  return advance_or_append(WalRecordType::kMarkEnded, doc.dump());
}

bool Durability::log_hour_end(std::int64_t hour,
                              TimeMicros processing_end) {
  if (commit_index_ < recovery_.recovered_index) {
    ++commit_index_;
    return false;
  }
  json::Value doc;
  doc["hour"] = hour;
  doc["processing_end"] = processing_end;
  return advance_or_append(WalRecordType::kHourEnd, doc.dump());
}

void Durability::snapshot_now() {
  json::Value state;
  state["feed"] = state_.feed.snapshot_state();
  state["trainer"] = state_.trainer.snapshot_state();
  json::Array outbox;
  outbox.reserve(state_.outbox.size());
  for (const feed::EmailMessage& mail : state_.outbox) {
    json::Value doc;
    doc["to"] = mail.to;
    doc["subject"] = mail.subject;
    doc["body"] = mail.body;
    doc["sent_at"] = mail.sent_at;
    outbox.push_back(std::move(doc));
  }
  state["outbox"] = std::move(outbox);
  if (Status saved = snapshots_.save(commit_index_, std::move(state));
      !saved.ok()) {
    EXIOT_LOG(LogLevel::kWarn, "durability",
              "snapshot failed: " + saved.error().message);
    return;
  }
  snapshot_writes_c_->inc();
  snapshot_index_g_->set(static_cast<double>(commit_index_));
  (void)snapshots_.prune();
  if (wal_ != nullptr) (void)wal_->prune(commit_index_);
}

void Durability::maybe_snapshot(std::int64_t hour) {
  if (config_.snapshot_interval_hours <= 0) return;
  if (!caught_up()) return;  // State is ahead of the commit counter.
  if ((hour + 1) % config_.snapshot_interval_hours != 0) return;
  snapshot_now();
}

void Durability::finish() {
  if (caught_up()) snapshot_now();
  if (wal_ != nullptr) {
    if (Status synced = wal_->sync(); !synced.ok()) {
      EXIOT_LOG(LogLevel::kWarn, "durability",
                "final WAL sync failed: " + synced.error().message);
    }
  }
}

}  // namespace exiot::pipeline
