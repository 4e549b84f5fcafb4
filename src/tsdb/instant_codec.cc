#include "tsdb/instant_codec.h"

#include "tsdb/binary_format.h"

namespace ppm::tsdb {

void PutInstant(std::string* out, const FeatureSet& instant,
                InstantEncoding encoding) {
  if (encoding == InstantEncoding::kFixed32) {
    bytes::PutU32(out, instant.Count());
    instant.ForEach([out](uint32_t id) { bytes::PutU32(out, id); });
    return;
  }
  bytes::PutVarint32(out, instant.Count());
  // ForEach iterates ascending, so delta encoding needs no sort.
  uint32_t previous = 0;
  instant.ForEach([out, &previous](uint32_t id) {
    bytes::PutVarint32(out, id - previous);
    previous = id;
  });
}

Status ReadInstant(bytes::ByteReader* in, InstantEncoding encoding,
                   uint32_t id_limit, FeatureSet* out) {
  const bool fixed = encoding == InstantEncoding::kFixed32;
  uint32_t count = 0;
  if (fixed ? !in->ReadU32(&count) : !in->ReadVarint32(&count)) {
    return Status::Corruption("truncated instant");
  }
  // An instant holds distinct ids, so its count can never pass the id
  // limit; a larger value is corruption and must fail fast rather than
  // grind through bogus reads.
  if (count > id_limit) {
    return Status::Corruption("instant feature count " +
                              std::to_string(count) + " exceeds " +
                              std::to_string(id_limit) + " features");
  }
  out->Reset();
  uint32_t previous = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t value = 0;
    if (fixed ? !in->ReadU32(&value) : !in->ReadVarint32(&value)) {
      return Status::Corruption("truncated feature id");
    }
    uint32_t id = value;
    if (!fixed && i > 0) {
      if (value == 0) return Status::Corruption("zero feature gap");
      // `previous < id_limit`, so this also refuses a gap that wraps.
      if (value >= id_limit - previous) {
        return Status::Corruption("feature id out of range after gap " +
                                  std::to_string(value));
      }
      id = previous + value;
    }
    if (id >= id_limit) {
      return Status::Corruption("feature id out of range: " +
                                std::to_string(id));
    }
    out->Set(id);
    previous = id;
  }
  return Status::OK();
}

void PutSeriesHeader(std::string* out, const SymbolTable& symbols,
                     uint64_t num_instants) {
  bytes::PutU32(out, symbols.size());
  for (const std::string& name : symbols.names()) bytes::PutString(out, name);
  bytes::PutU64(out, num_instants);
}

Status ReadSeriesHeader(bytes::ByteReader* in, SymbolTable* symbols,
                        uint64_t* num_instants) {
  uint32_t num_symbols = 0;
  if (!in->ReadU32(&num_symbols)) return Status::Corruption("truncated header");
  std::string name;
  for (uint32_t i = 0; i < num_symbols; ++i) {
    // The cap is checked before allocating: a corrupt length must not
    // trigger a multi-gigabyte allocation.
    if (!in->ReadString(&name, internal::kMaxSymbolNameBytes)) {
      return Status::Corruption(in->short_read()
                                    ? "truncated symbol table"
                                    : "implausible symbol name length");
    }
    if (symbols->Intern(name) != i) {
      return Status::Corruption("duplicate symbol: " + name);
    }
  }
  if (!in->ReadU64(num_instants)) return Status::Corruption("truncated length");
  return Status::OK();
}

void PutInstants(std::string* out, const TimeSeries& series,
                 InstantEncoding encoding) {
  for (const FeatureSet& instant : series.instants()) {
    PutInstant(out, instant, encoding);
  }
}

Status ReadInstants(bytes::ByteReader* in, InstantEncoding encoding,
                    uint64_t num_instants, TimeSeries* series) {
  const uint64_t min_bytes = encoding == InstantEncoding::kFixed32 ? 4 : 1;
  if (num_instants > in->remaining() / min_bytes) {
    return Status::Corruption("truncated instants: " +
                              std::to_string(num_instants) + " declared");
  }
  const uint32_t id_limit = series->symbols().size();
  for (uint64_t t = 0; t < num_instants; ++t) {
    FeatureSet instant;
    PPM_RETURN_IF_ERROR(ReadInstant(in, encoding, id_limit, &instant));
    series->Append(std::move(instant));
  }
  return Status::OK();
}

}  // namespace ppm::tsdb
