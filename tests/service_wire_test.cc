#include "service/wire.h"

#include <gtest/gtest.h>

#include <string>

#include "tsdb/time_series.h"

namespace ppm::service::wire {
namespace {

Request MakeMineRequest() {
  Request request;
  request.op = Op::kMine;
  request.name = "sensor.42";
  request.deadline_ms = 1500;
  request.period = 24;
  request.min_confidence = 0.625;  // Exactly representable.
  request.min_count = 7;
  request.max_letters = 3;
  request.algorithm = 0;
  return request;
}

TEST(WireTest, MineRequestRoundTrip) {
  const Request request = MakeMineRequest();
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, Op::kMine);
  EXPECT_EQ(decoded->name, "sensor.42");
  EXPECT_EQ(decoded->deadline_ms, 1500u);
  EXPECT_EQ(decoded->period, 24u);
  EXPECT_EQ(decoded->min_confidence, 0.625);
  EXPECT_EQ(decoded->min_count, 7u);
  EXPECT_EQ(decoded->max_letters, 3u);
  EXPECT_EQ(decoded->algorithm, 0);
}

TEST(WireTest, PutRequestCarriesSeries) {
  Request request;
  request.op = Op::kPut;
  request.name = "s";
  request.series.AppendNamed({"a", "b"});
  request.series.AppendNamed({"b"});
  request.series.AppendNamed({});

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->series.length(), 3u);
  EXPECT_EQ(decoded->series.symbols().names(),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(decoded->series.at(0).Count(), 2u);
  EXPECT_EQ(decoded->series.at(2).Count(), 0u);
}

TEST(WireTest, AppendRequestCarriesNamedInstants) {
  Request request;
  request.op = Op::kAppend;
  request.name = "s";
  request.instants = {{"x", "y"}, {}, {"z"}};
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->instants, request.instants);
}

TEST(WireTest, ResponseRoundTrip) {
  Response response;
  response.code = 9;  // kDeadlineExceeded
  response.message = "deadline exceeded";
  response.cache_outcome = 2;
  response.version = 17;
  response.length = 4242;
  response.num_periods = 100;
  response.period = 42;
  response.symbols = {"a", "b", "c"};
  WirePattern pattern;
  pattern.letters = {{0, 2}, {41, 0}};
  pattern.count = 93;
  pattern.confidence = 0.93;
  response.patterns.push_back(pattern);
  response.stats_json = "{\"x\":1}";
  response.metrics_prom = "# TYPE x counter\n";

  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, 9);
  EXPECT_EQ(decoded->message, "deadline exceeded");
  EXPECT_EQ(decoded->cache_outcome, 2);
  EXPECT_EQ(decoded->version, 17u);
  EXPECT_EQ(decoded->length, 4242u);
  EXPECT_EQ(decoded->num_periods, 100u);
  EXPECT_EQ(decoded->period, 42u);
  EXPECT_EQ(decoded->symbols, response.symbols);
  ASSERT_EQ(decoded->patterns.size(), 1u);
  EXPECT_EQ(decoded->patterns[0].letters, pattern.letters);
  EXPECT_EQ(decoded->patterns[0].count, 93u);
  EXPECT_EQ(decoded->patterns[0].confidence, 0.93);
  EXPECT_EQ(decoded->stats_json, response.stats_json);
  EXPECT_EQ(decoded->metrics_prom, response.metrics_prom);
}

TEST(WireTest, GetResponseSeriesRoundTrip) {
  Response response;
  response.has_series = true;
  response.series.AppendNamed({"q"});
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->has_series);
  EXPECT_EQ(decoded->series.length(), 1u);
}

TEST(WireTest, V2RequestCarriesTenantAndRoundTrips) {
  Request request = MakeMineRequest();
  request.tenant = "team-alpha";
  const std::string encoded = EncodeRequest(request);
  ASSERT_FALSE(encoded.empty());
  EXPECT_EQ(static_cast<uint8_t>(encoded[0]), kV2Marker);
  auto decoded = DecodeRequest(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->tenant, "team-alpha");
  EXPECT_EQ(decoded->op, Op::kMine);
  EXPECT_EQ(decoded->name, "sensor.42");
  EXPECT_EQ(decoded->min_confidence, 0.625);
}

TEST(WireTest, EveryRequestCarriesTheMarker) {
  // No tenant and no v2-only op: still the one layout, marker first.
  const Request request = MakeMineRequest();
  const std::string encoded = EncodeRequest(request);
  EXPECT_EQ(static_cast<uint8_t>(encoded[0]), kV2Marker);
  auto decoded = DecodeRequest(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->tenant.empty());
}

TEST(WireTest, HealthAndReadyOpsRoundTrip) {
  for (const Op op : {Op::kHealth, Op::kReady}) {
    Request request;
    request.op = op;
    const std::string encoded = EncodeRequest(request);
    EXPECT_EQ(static_cast<uint8_t>(encoded[0]), kV2Marker);
    auto decoded = DecodeRequest(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, op);
  }
}

TEST(WireTest, UnmarkedPayloadsAreRejected) {
  // The retired v1 layout: no marker byte, no tenant and no trailing
  // retry-after / readiness fields. A v1 `stats` request is op 6, a zero
  // deadline and an empty name.
  const std::string v1_request = std::string("\x06", 1) + std::string(8, '\0');
  auto decoded = DecodeRequest(v1_request);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // A v1 empty OK response is all zeros: code, message, cache outcome,
  // version, length, the result section (num_periods, period, no symbols,
  // no patterns), has_series, stats_json and metrics_prom.
  const std::string v1_response(1 + 4 + 1 + 8 + 8 + 8 + 4 + 4 + 8 + 1 + 4 + 4,
                                '\0');
  auto decoded_response = DecodeResponse(v1_response);
  ASSERT_FALSE(decoded_response.ok());
  EXPECT_EQ(decoded_response.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, V2ResponseCarriesRetryHintAndReadyState) {
  Response response;
  response.code = 10;  // kResourceExhausted
  response.message = "tenant over quota";
  response.retry_after_ms = 250;
  response.ready_state = static_cast<uint8_t>(ReadyState::kShedding);
  response.health_json = "{\"queue_depth\":9}";
  const std::string encoded = EncodeResponse(response);
  EXPECT_EQ(static_cast<uint8_t>(encoded[0]), kV2Marker);
  auto decoded = DecodeResponse(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, 10);
  EXPECT_EQ(decoded->retry_after_ms, 250u);
  EXPECT_EQ(decoded->ready_state, static_cast<uint8_t>(ReadyState::kShedding));
  EXPECT_EQ(decoded->health_json, "{\"queue_depth\":9}");
}

TEST(WireTest, V2TruncatedPayloadIsRejectedAtEveryPrefix) {
  Request request = MakeMineRequest();
  request.tenant = "t";
  const std::string encoded = EncodeRequest(request);
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto decoded = DecodeRequest(std::string_view(encoded.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(DecodeRequest(encoded).ok());

  Response response;
  response.code = 10;
  response.retry_after_ms = 100;
  response.health_json = "{}";
  const std::string resp = EncodeResponse(response);
  for (size_t len = 0; len < resp.size(); ++len) {
    auto decoded = DecodeResponse(std::string_view(resp.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(DecodeResponse(resp).ok());
}

TEST(WireTest, TruncatedPayloadIsRejectedAtEveryPrefix) {
  // Every proper prefix must fail cleanly (no crash, no OOB) -- the
  // decoder bounds-checks each read against the remaining payload.
  const std::string encoded = EncodeRequest(MakeMineRequest());
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto decoded = DecodeRequest(std::string_view(encoded.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(DecodeRequest(encoded).ok());
}

TEST(WireTest, TrailingGarbageIsRejected) {
  std::string encoded = EncodeRequest(MakeMineRequest());
  encoded += '\0';
  EXPECT_FALSE(DecodeRequest(encoded).ok());
}

TEST(WireTest, ResponseLetterOutsideSymbolsOrPeriodIsRejected) {
  Response response;
  response.period = 4;
  response.symbols = {"a"};
  WirePattern pattern;
  pattern.letters = {{0, 0}};
  pattern.count = 1;
  response.patterns.push_back(pattern);
  ASSERT_TRUE(DecodeResponse(EncodeResponse(response)).ok());

  // Feature 5 against a one-symbol list.
  response.patterns[0].letters = {{0, 5}};
  auto bad_feature = DecodeResponse(EncodeResponse(response));
  ASSERT_FALSE(bad_feature.ok());
  EXPECT_EQ(bad_feature.status().code(), StatusCode::kInvalidArgument);

  // A period of 0 admits no position at all.
  response.period = 0;
  response.patterns[0].letters = {{3, 0}};
  auto bad_position = DecodeResponse(EncodeResponse(response));
  ASSERT_FALSE(bad_position.ok());
  EXPECT_EQ(bad_position.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, OutOfRangeFeatureIdIsRejected) {
  Request request;
  request.op = Op::kPut;
  request.name = "s";
  request.series.AppendNamed({"a"});
  std::string encoded = EncodeRequest(request);
  // The single set feature id lives at the end of the payload; bump it
  // past the symbol table.
  encoded[encoded.size() - 4] = 7;
  auto decoded = DecodeRequest(encoded);
  EXPECT_FALSE(decoded.ok());
}

}  // namespace
}  // namespace ppm::service::wire
