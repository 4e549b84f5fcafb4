#include "dist/shard_plan.h"

#include <algorithm>
#include <utility>

#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/frame.h"
#include "util/fs.h"

namespace ppm::dist {

namespace {

using bytes::PutF64;
using bytes::PutString;
using bytes::PutU32;
using bytes::PutU64;

/// Caps on decoded collection sizes, checked before any allocation.
constexpr uint32_t kMaxInputs = 1u << 20;
constexpr uint32_t kMaxShards = 1u << 24;
constexpr uint32_t kMaxPathBytes = 1u << 16;

Status PlanCorrupt(const std::string& what) {
  return Status::Corruption("shard plan: " + what);
}

}  // namespace

MiningOptions ShardPlan::ToMiningOptions() const {
  MiningOptions options;
  options.period = period;
  options.min_confidence = min_confidence;
  options.min_count = min_count;
  options.max_letters = max_letters;
  return options;
}

Result<ShardPlan> PlanShards(
    const std::vector<std::pair<std::string, uint64_t>>& inputs,
    const MiningOptions& options, uint32_t shards_per_input) {
  if (inputs.empty()) {
    return Status::InvalidArgument("plan needs at least one input");
  }
  if (shards_per_input == 0) {
    return Status::InvalidArgument("--shards-per-input must be >= 1");
  }
  ShardPlan plan;
  plan.period = options.period;
  plan.min_confidence = options.min_confidence;
  plan.min_count = options.min_count;
  plan.max_letters = options.max_letters;
  for (const auto& [path, length] : inputs) {
    PPM_RETURN_IF_ERROR(options.Validate(length));
    PlanInput input;
    input.path = path;
    input.length = length;
    input.num_segments = length / options.period;
    if (input.num_segments == 0) {
      return Status::InvalidArgument("input '" + path +
                                     "' has no whole period segment");
    }
    const uint32_t input_index = static_cast<uint32_t>(plan.inputs.size());
    // Near-equal contiguous ranges; an input shorter than the requested
    // split simply gets fewer (non-empty) shards.
    const uint64_t pieces =
        std::min<uint64_t>(shards_per_input, input.num_segments);
    for (uint64_t piece = 0; piece < pieces; ++piece) {
      ShardSpec shard;
      shard.shard_id = static_cast<uint32_t>(plan.shards.size());
      shard.input_index = input_index;
      shard.segment_begin = input.num_segments * piece / pieces;
      shard.segment_end = input.num_segments * (piece + 1) / pieces;
      plan.shards.push_back(shard);
    }
    plan.inputs.push_back(std::move(input));
  }
  PPM_RETURN_IF_ERROR(ValidatePlan(plan));
  return plan;
}

Status ValidatePlan(const ShardPlan& plan) {
  const auto invalid = [](const std::string& what) {
    return Status::InvalidArgument("shard plan: " + what);
  };
  if (plan.period == 0) return invalid("period must be >= 1");
  if (plan.min_count == 0 &&
      (plan.min_confidence <= 0.0 || plan.min_confidence > 1.0)) {
    return invalid("min_confidence must be in (0, 1]");
  }
  if (plan.inputs.empty()) return invalid("no inputs");
  if (plan.shards.empty()) return invalid("no shards");
  for (const PlanInput& input : plan.inputs) {
    if (input.num_segments != input.length / plan.period) {
      return invalid("input '" + input.path +
                     "' has inconsistent segment count");
    }
    if (input.num_segments == 0) {
      return invalid("input '" + input.path + "' has no whole segment");
    }
  }
  // Shards must tile each input's [0, num_segments) exactly. Plans list
  // shards in (input, range) order, so a single linear walk checks ids,
  // bounds, and gap/overlap at once.
  uint32_t expected_input = 0;
  uint64_t expected_begin = 0;
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    const ShardSpec& shard = plan.shards[i];
    if (shard.shard_id != i) return invalid("shard ids are not dense");
    if (shard.input_index >= plan.inputs.size()) {
      return invalid("shard " + std::to_string(i) +
                     " names a missing input");
    }
    if (shard.input_index != expected_input) {
      if (shard.input_index != expected_input + 1 ||
          expected_begin !=
              plan.inputs[expected_input].num_segments) {
        return invalid("shards do not tile input " +
                       std::to_string(expected_input));
      }
      expected_input = shard.input_index;
      expected_begin = 0;
    }
    if (shard.segment_begin != expected_begin ||
        shard.segment_end <= shard.segment_begin) {
      return invalid("shard " + std::to_string(i) +
                     " breaks the segment tiling");
    }
    if (shard.segment_end > plan.inputs[shard.input_index].num_segments) {
      return invalid("shard " + std::to_string(i) +
                     " runs past its input");
    }
    expected_begin = shard.segment_end;
  }
  if (expected_input != plan.inputs.size() - 1 ||
      expected_begin != plan.inputs.back().num_segments) {
    return invalid("shards do not cover the last input");
  }
  return Status::OK();
}

std::string EncodePlanBody(const ShardPlan& plan) {
  std::string body;
  PutU32(&body, kPlanVersion);
  PutU32(&body, plan.period);
  PutF64(&body, plan.min_confidence);
  PutU64(&body, plan.min_count);
  PutU32(&body, plan.max_letters);
  PutU32(&body, static_cast<uint32_t>(plan.inputs.size()));
  for (const PlanInput& input : plan.inputs) {
    PutString(&body, input.path);
    PutU64(&body, input.length);
    PutU64(&body, input.num_segments);
  }
  PutU32(&body, static_cast<uint32_t>(plan.shards.size()));
  for (const ShardSpec& shard : plan.shards) {
    PutU32(&body, shard.shard_id);
    PutU32(&body, shard.input_index);
    PutU64(&body, shard.segment_begin);
    PutU64(&body, shard.segment_end);
  }
  return body;
}

Result<ShardPlan> DecodePlanBody(std::string_view body) {
  bytes::ByteReader reader(body);
  ShardPlan plan;
  uint32_t version = 0;
  if (!reader.ReadU32(&version)) return PlanCorrupt("truncated version");
  if (version != kPlanVersion) {
    return PlanCorrupt("unsupported version " + std::to_string(version));
  }
  if (!reader.ReadU32(&plan.period) ||
      !reader.ReadF64(&plan.min_confidence) ||
      !reader.ReadU64(&plan.min_count) ||
      !reader.ReadU32(&plan.max_letters)) {
    return PlanCorrupt("truncated parameters");
  }
  uint32_t num_inputs = 0;
  if (!reader.ReadU32(&num_inputs)) return PlanCorrupt("truncated inputs");
  if (num_inputs > kMaxInputs || reader.remaining() / 20 < num_inputs) {
    return PlanCorrupt("implausible input count");
  }
  plan.inputs.resize(num_inputs);
  for (PlanInput& input : plan.inputs) {
    if (!reader.ReadString(&input.path, kMaxPathBytes) ||
        !reader.ReadU64(&input.length) ||
        !reader.ReadU64(&input.num_segments)) {
      return PlanCorrupt("truncated input entry");
    }
  }
  uint32_t num_shards = 0;
  if (!reader.ReadU32(&num_shards)) return PlanCorrupt("truncated shards");
  if (num_shards > kMaxShards || reader.remaining() / 24 < num_shards) {
    return PlanCorrupt("implausible shard count");
  }
  plan.shards.resize(num_shards);
  for (ShardSpec& shard : plan.shards) {
    if (!reader.ReadU32(&shard.shard_id) ||
        !reader.ReadU32(&shard.input_index) ||
        !reader.ReadU64(&shard.segment_begin) ||
        !reader.ReadU64(&shard.segment_end)) {
      return PlanCorrupt("truncated shard entry");
    }
  }
  if (!reader.exhausted()) return PlanCorrupt("trailing bytes");
  return plan;
}

Status WritePlanFile(ShardPlan* plan, const std::string& path) {
  PPM_RETURN_IF_ERROR(ValidatePlan(*plan));
  const std::string body = EncodePlanBody(*plan);
  plan->fingerprint = crc32c::Value(body);
  return fsutil::AtomicWriteFile(path, frame::EncodeFile(kPlanMagic, body));
}

Result<ShardPlan> ReadPlanFile(const std::string& path) {
  PPM_ASSIGN_OR_RETURN(const std::string file, fsutil::ReadFileBytes(path));
  PPM_ASSIGN_OR_RETURN(const std::string_view body,
                       frame::DecodeFile(file, kPlanMagic, path));
  PPM_ASSIGN_OR_RETURN(ShardPlan plan, DecodePlanBody(body));
  const Status valid = ValidatePlan(plan);
  if (!valid.ok()) {
    // A structurally invalid plan behind a passing CRC means the file
    // was hand-built or tampered with wholesale; surface as corruption
    // so callers treat it like any other unusable manifest.
    return Status::Corruption(valid.message());
  }
  plan.fingerprint = crc32c::Value(body);
  return plan;
}

std::string ShardResultPath(const std::string& results_dir,
                            uint32_t shard_id) {
  return results_dir + "/shard-" + std::to_string(shard_id) + ".result";
}

}  // namespace ppm::dist
