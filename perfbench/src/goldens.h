// Golden digests: per capture hour (24 slots) plus one slot for what the
// day's end flushes (live_day: the outbox; replay_day: events from
// ThreadedIngest::finish). Recorded for seed 42, which the benchmark was
// written against, and for seed 20211, held out from it, so a later claim
// can be re-checked on a seed nobody tuned for. Any other seed is checked
// for determinism across the days of one run instead.
//
// live_day slots digest the committed records through feed::export_jsonl,
// bucketed by the capture hour of detect_time; replay_day slots digest the
// detector events (scanner, sample, flow end, per-second report) in
// delivery order. An intended change to either output re-records them:
// run `exiot_perfbench --workload <w> --seed <s> ...` and copy its
// `digests` line.
#pragma once

#include <cstdint>
#include <vector>

namespace exiot::perfbench {

inline const std::vector<std::uint64_t>* live_golden(std::uint64_t seed) {
  static const std::vector<std::uint64_t> k42 = {
      0x195b3b2fc62c756bull, 0x8f5786dcd51a8e68ull, 0x448bea434bfc08e5ull,
      0x2e10c32878d2e8a8ull, 0x3ebf0da69affc177ull, 0xaa719161110f32f8ull,
      0x6527eeb0ffc9d5bdull, 0x452ab7474e88e510ull, 0xe654db070e9db3e6ull,
      0xd39e51d428920772ull, 0x054be60b69d30850ull, 0xa53df6ec75a5976cull,
      0x3002abe1e3761c44ull, 0x42e6ba6876cdc6ffull, 0x957adff7625dd906ull,
      0x0dc7825fc569b977ull, 0x0efeacfa9f39c9aaull, 0xa5572a6d67cdfe8bull,
      0xe7ebb4a6c0752c84ull, 0x68101917414bd1c6ull, 0x45d00b9a6ed66567ull,
      0x6ae061db86383a59ull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
      0x5288f679e7a12669ull,
  };
  static const std::vector<std::uint64_t> k20211 = {
      0xfb7958333ae055e9ull, 0x3665670a9c776652ull, 0x8e7666d630908481ull,
      0xe28a86af4f2561b5ull, 0x89f315672a5c4223ull, 0xea391e79e4c1d478ull,
      0xf05ed574b9d9cd07ull, 0xecefa1de704e1b29ull, 0x1f677fed122c2dd1ull,
      0x6fc66c047ff28364ull, 0xc22fd75fcb1e949eull, 0x9882a4aabfabeae6ull,
      0xc5fe7ac7228ca280ull, 0xd709d53b4970d55eull, 0xe80e0c80e3b2fb3aull,
      0x8d562ba0c0ee85daull, 0x50f5f4158a5862eeull, 0x2fb52091c5699597ull,
      0xa5989117389762b8ull, 0xbb01a71cb7e27eb3ull, 0x8c77d3dff0da012cull,
      0xc5169ccc11ef996bull, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull,
      0x89721b38a12c69eeull,
  };
  if (seed == 42) return &k42;
  if (seed == 20211) return &k20211;
  return nullptr;
}

inline const std::vector<std::uint64_t>* replay_golden(std::uint64_t seed) {
  static const std::vector<std::uint64_t> k42 = {
      0x40fbe8da2d430875ull, 0x9f39874e3bab3d05ull, 0xd138a214b6b3bc19ull,
      0xa011bb3f36c503deull, 0xbc623cc3b2a5e035ull, 0x345be8344f907989ull,
      0x31b4a6c38c5c029cull, 0x4b7363e5b700c759ull, 0x1418460f5acb50f6ull,
      0xf47c9998a84b168eull, 0x828366f6b55c06c4ull, 0xa76233046b984d2cull,
      0xcd3f63c223f18364ull, 0xeeae0b475e13ffe7ull, 0xe918e677809c2350ull,
      0x6b47e0a89ce17eadull, 0xac08026a681f5a06ull, 0x93bf952eb6be1de1ull,
      0x95eef6b624486d6eull, 0x170dd4aa791c0d81ull, 0x0db772cfd1ce720full,
      0x1d34106de95ca62bull, 0x445f548b919105f3ull, 0x70e0574c56432bdeull,
      0x365c78fc6083e30aull,
  };
  static const std::vector<std::uint64_t> k20211 = {
      0xef294946b4585059ull, 0x13af65cc1d9ceb59ull, 0x343cbf50f4cbf9aeull,
      0xfb05454d5997c39cull, 0x7a321dc2e5006fc5ull, 0xc88591efaa4ad0a4ull,
      0x5a9b90d24872f3acull, 0x96b3bc447b75ebb9ull, 0x62d606a64e7ead06ull,
      0xab3e4af89025778dull, 0x37ecd90237126323ull, 0x6945844af9ffa27aull,
      0x479ac25bf2625562ull, 0x64ec43eab7a18617ull, 0xbde7fcfed0f56d2eull,
      0xf4bf19bc7b179c1aull, 0x62852c0a32b922d8ull, 0x5c862fd47ed171b3ull,
      0x69475c17dbe173f5ull, 0xe4ecb33f698bfe63ull, 0x852847e52cd94ff4ull,
      0xb1d19112434ecafbull, 0xe03b706f52430a0bull, 0x1bee4caff7699e02ull,
      0x619214964315167full,
  };
  if (seed == 42) return &k42;
  if (seed == 20211) return &k20211;
  return nullptr;
}

}  // namespace exiot::perfbench
