#ifndef PPM_TSDB_INSTANT_CODEC_H_
#define PPM_TSDB_INSTANT_CODEC_H_

// The one encoder and decoder of instants and of the series header they
// follow, shared by every layout that stores them (docs/FILE_FORMATS.md):
// the v1/v2/v3 `.ppmts` files, WAL records and PPMRPC series blocks.

#include <cstdint>
#include <string>

#include "tsdb/symbol_table.h"
#include "tsdb/time_series.h"
#include "util/bytes.h"
#include "util/status.h"

namespace ppm::tsdb {

/// How one instant's feature ids are laid out.
enum class InstantEncoding {
  /// v1 `.ppmts` and PPMRPC: u32 count, then each id as a u32.
  kFixed32,
  /// v2/v3 `.ppmts` and WAL records: varint count, then the ascending ids
  /// as varints -- the first absolute, then gaps of at least 1.
  kVarintDelta,
};

void PutInstant(std::string* out, const FeatureSet& instant,
                InstantEncoding encoding);

/// Decodes one instant into `*out`. Every id must be below `id_limit`. A
/// truncated instant, a count above `id_limit`, a zero gap, a gap that
/// passes `id_limit` (or wraps) and an out-of-range id are `kCorruption`.
Status ReadInstant(bytes::ByteReader* in, InstantEncoding encoding,
                   uint32_t id_limit, FeatureSet* out);

/// The header every series layout starts with: u32 symbol count, each name
/// as a string, then the u64 instant count.
void PutSeriesHeader(std::string* out, const SymbolTable& symbols,
                     uint64_t num_instants);

/// Reads the header, interning the names into the empty `*symbols`. A name
/// over `kMaxSymbolNameBytes` or a repeated name is `kCorruption`.
Status ReadSeriesHeader(bytes::ByteReader* in, SymbolTable* symbols,
                        uint64_t* num_instants);

/// Every instant of `series`, in order.
void PutInstants(std::string* out, const TimeSeries& series,
                 InstantEncoding encoding);

/// Appends `num_instants` decoded instants to `*series`, checking ids
/// against its symbol table. A count the remaining bytes cannot hold is
/// refused up front.
Status ReadInstants(bytes::ByteReader* in, InstantEncoding encoding,
                    uint64_t num_instants, TimeSeries* series);

}  // namespace ppm::tsdb

#endif  // PPM_TSDB_INSTANT_CODEC_H_
