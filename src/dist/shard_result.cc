#include "dist/shard_result.h"

#include <algorithm>

#include "util/bytes.h"
#include "util/frame.h"
#include "util/fs.h"

namespace ppm::dist {

namespace {

using bytes::PutString;
using bytes::PutU32;
using bytes::PutU64;

constexpr uint32_t kMaxSymbols = 1u << 24;
constexpr uint32_t kMaxSymbolNameBytes = 1u << 20;
constexpr uint32_t kMaxLetters = 1u << 24;
constexpr uint64_t kMaxHits = 1ull << 32;

Status ResultCorrupt(const std::string& what) {
  return Status::Corruption("shard result: " + what);
}

}  // namespace

std::string EncodeShardResultBody(const ShardResult& result) {
  std::string body;
  PutU32(&body, kResultVersion);
  PutU32(&body, result.plan_fingerprint);
  PutU32(&body, result.shard_id);
  PutU32(&body, result.input_index);
  PutU64(&body, result.segment_begin);
  PutU64(&body, result.segment_end);
  PutU32(&body, static_cast<uint32_t>(result.symbols.size()));
  for (const std::string& name : result.symbols) PutString(&body, name);
  PutU32(&body, static_cast<uint32_t>(result.letter_counts.size()));
  for (const LetterCount& entry : result.letter_counts) {
    PutU32(&body, entry.letter.position);
    PutU32(&body, entry.letter.feature);
    PutU64(&body, entry.count);
  }
  PutU64(&body, result.hits.size());
  for (const RawHit& hit : result.hits) {
    PutU32(&body, static_cast<uint32_t>(hit.letters.size()));
    for (const Letter& letter : hit.letters) {
      PutU32(&body, letter.position);
      PutU32(&body, letter.feature);
    }
    PutU64(&body, hit.count);
  }
  return body;
}

Result<ShardResult> DecodeShardResultBody(std::string_view body) {
  bytes::ByteReader reader(body);
  ShardResult result;
  uint32_t version = 0;
  if (!reader.ReadU32(&version)) return ResultCorrupt("truncated version");
  if (version != kResultVersion) {
    return ResultCorrupt("unsupported version " + std::to_string(version));
  }
  if (!reader.ReadU32(&result.plan_fingerprint) ||
      !reader.ReadU32(&result.shard_id) ||
      !reader.ReadU32(&result.input_index) ||
      !reader.ReadU64(&result.segment_begin) ||
      !reader.ReadU64(&result.segment_end)) {
    return ResultCorrupt("truncated header");
  }
  uint32_t num_symbols = 0;
  if (!reader.ReadU32(&num_symbols)) {
    return ResultCorrupt("truncated symbol count");
  }
  if (num_symbols > kMaxSymbols || reader.remaining() / 4 < num_symbols) {
    return ResultCorrupt("implausible symbol count");
  }
  result.symbols.resize(num_symbols);
  for (std::string& name : result.symbols) {
    if (!reader.ReadString(&name, kMaxSymbolNameBytes)) {
      return ResultCorrupt("truncated symbol name");
    }
  }
  uint32_t num_letters = 0;
  if (!reader.ReadU32(&num_letters)) {
    return ResultCorrupt("truncated letter count");
  }
  if (num_letters > kMaxLetters || reader.remaining() / 16 < num_letters) {
    return ResultCorrupt("implausible letter count");
  }
  result.letter_counts.resize(num_letters);
  for (LetterCount& entry : result.letter_counts) {
    if (!reader.ReadU32(&entry.letter.position) ||
        !reader.ReadU32(&entry.letter.feature) ||
        !reader.ReadU64(&entry.count)) {
      return ResultCorrupt("truncated letter entry");
    }
  }
  uint64_t num_hits = 0;
  if (!reader.ReadU64(&num_hits)) return ResultCorrupt("truncated hit count");
  if (num_hits > kMaxHits || reader.remaining() / 12 < num_hits) {
    return ResultCorrupt("implausible hit count");
  }
  result.hits.resize(num_hits);
  for (RawHit& hit : result.hits) {
    uint32_t hit_letters = 0;
    if (!reader.ReadU32(&hit_letters)) {
      return ResultCorrupt("truncated hit entry");
    }
    if (hit_letters > kMaxLetters || reader.remaining() / 8 < hit_letters) {
      return ResultCorrupt("implausible hit size");
    }
    hit.letters.resize(hit_letters);
    for (Letter& letter : hit.letters) {
      if (!reader.ReadU32(&letter.position) ||
          !reader.ReadU32(&letter.feature)) {
        return ResultCorrupt("truncated hit letters");
      }
    }
    if (!reader.ReadU64(&hit.count)) return ResultCorrupt("truncated hit");
  }
  if (!reader.exhausted()) return ResultCorrupt("trailing bytes");
  return result;
}

Status WriteShardResultFile(const ShardResult& result,
                            const std::string& path) {
  return fsutil::AtomicWriteFile(
      path, frame::EncodeFile(kResultMagic, EncodeShardResultBody(result)));
}

Result<ShardResult> ReadShardResultFile(const std::string& path) {
  PPM_ASSIGN_OR_RETURN(const std::string file, fsutil::ReadFileBytes(path));
  PPM_ASSIGN_OR_RETURN(const std::string_view body,
                       frame::DecodeFile(file, kResultMagic, path));
  return DecodeShardResultBody(body);
}

Status ValidateShardResult(const ShardPlan& plan, uint32_t shard_id,
                           const ShardResult& result) {
  if (shard_id >= plan.shards.size()) {
    return ResultCorrupt("shard id " + std::to_string(shard_id) +
                         " outside the plan");
  }
  const ShardSpec& spec = plan.shards[shard_id];
  if (result.plan_fingerprint != plan.fingerprint) {
    return ResultCorrupt("fingerprint mismatch: result was mined under a "
                         "different plan");
  }
  if (result.shard_id != shard_id || result.input_index != spec.input_index ||
      result.segment_begin != spec.segment_begin ||
      result.segment_end != spec.segment_end) {
    return ResultCorrupt("shard " + std::to_string(shard_id) +
                         " identity does not match the plan");
  }
  // Boundary bookkeeping: letters in range, counts bounded by the range
  // size, canonical (strictly increasing) ordering everywhere. Raw hit
  // multiplicities must also total at most the range's segment count.
  const uint64_t segments = spec.num_segments();
  const Letter* previous = nullptr;
  for (const LetterCount& entry : result.letter_counts) {
    if (entry.letter.position >= plan.period) {
      return ResultCorrupt("letter position outside the period");
    }
    if (entry.letter.feature >= result.symbols.size()) {
      return ResultCorrupt("letter feature outside the symbol table");
    }
    if (entry.count == 0 || entry.count > segments) {
      return ResultCorrupt("letter count outside [1, segments]");
    }
    if (previous != nullptr && !(*previous < entry.letter)) {
      return ResultCorrupt("letter counts are not in canonical order");
    }
    previous = &entry.letter;
  }
  uint64_t hit_total = 0;
  const std::vector<Letter>* previous_hit = nullptr;
  for (const RawHit& hit : result.hits) {
    if (hit.letters.empty()) {
      return ResultCorrupt("raw hit with no letters");
    }
    for (size_t i = 0; i < hit.letters.size(); ++i) {
      if (hit.letters[i].position >= plan.period ||
          hit.letters[i].feature >= result.symbols.size()) {
        return ResultCorrupt("raw hit letter out of range");
      }
      if (i > 0 && !(hit.letters[i - 1] < hit.letters[i])) {
        return ResultCorrupt("raw hit letters are not in canonical order");
      }
    }
    if (hit.count == 0 || hit.count > segments) {
      return ResultCorrupt("raw hit count outside [1, segments]");
    }
    hit_total += hit.count;
    if (hit_total > segments) {
      return ResultCorrupt("raw hit counts exceed the segment range");
    }
    if (previous_hit != nullptr &&
        !std::lexicographical_compare(previous_hit->begin(),
                                      previous_hit->end(),
                                      hit.letters.begin(),
                                      hit.letters.end())) {
      return ResultCorrupt("raw hits are not in canonical order");
    }
    previous_hit = &hit.letters;
  }
  return Status::OK();
}

}  // namespace ppm::dist
