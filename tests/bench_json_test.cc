// Tests for the shared BENCH_*.json writer (bench/bench_json.h): the
// rendered layout for 0, 1 and 3 rows, optional row fields, string
// escaping, number precision, and the round trip through a file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "bench/bench_json.h"

namespace eunomia::bench {
namespace {

TEST(BenchJsonTest, HeaderWithNoRows) {
  BenchJson json("fig0", /*smoke=*/true);
  json.header().Int("num_partitions", 8u).Str("overhead_metric", "cpu_time");
  EXPECT_EQ(json.Render(),
            "{\n"
            "  \"figure\": \"fig0\",\n"
            "  \"mode\": \"smoke\",\n"
            "  \"num_partitions\": 8,\n"
            "  \"overhead_metric\": \"cpu_time\",\n"
            "  \"series\": []\n"
            "}\n");
}

TEST(BenchJsonTest, OneRow) {
  BenchJson json("fig1", /*smoke=*/false);
  json.AddRow().Str("system", "EunomiaKV").Num("ops_per_s", 1234.56, 1);
  EXPECT_EQ(json.Render(),
            "{\n"
            "  \"figure\": \"fig1\",\n"
            "  \"mode\": \"full\",\n"
            "  \"series\": [\n"
            "    {\"system\": \"EunomiaKV\", \"ops_per_s\": 1234.6}\n"
            "  ]\n"
            "}\n");
}

TEST(BenchJsonTest, ThreeRowsWithOptionalFields) {
  BenchJson json("fig2", /*smoke=*/true);
  for (int i = 0; i < 3; ++i) {
    JsonFields& row = json.AddRow();
    row.Int("shards", i + 1);
    if (i == 1) {
      row.Num("ack_p50_us", 12.0, 1).Bool("paced", true);
    }
  }
  EXPECT_EQ(json.Render(),
            "{\n"
            "  \"figure\": \"fig2\",\n"
            "  \"mode\": \"smoke\",\n"
            "  \"series\": [\n"
            "    {\"shards\": 1},\n"
            "    {\"shards\": 2, \"ack_p50_us\": 12.0, \"paced\": true},\n"
            "    {\"shards\": 3}\n"
            "  ]\n"
            "}\n");
}

TEST(BenchJsonTest, EscapesStrings) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a \"q\" \\ b"), "\"a \\\"q\\\" \\\\ b\"");

  BenchJson json("esc", /*smoke=*/true);
  json.AddRow().Str("work\"load", "t=\"1\"");
  EXPECT_NE(json.Render().find("{\"work\\\"load\": \"t=\\\"1\\\"\"}"),
            std::string::npos);
}

TEST(BenchJsonTest, NumbersPrintAtRequestedPrecision) {
  JsonFields fields;
  fields.Num("p0", 2.5, 0)
      .Num("p1", 0.05, 1)
      .Num("p3", 1.0 / 3.0, 3)
      .Num("p4", 0.12345, 4)
      .Num("neg", -1.0, 0)
      .Int("big", std::uint64_t{18446744073709551615u})
      .Int("zero", 0)
      .Bool("off", false);
  EXPECT_EQ(fields.text(),
            "\"p0\": 2, \"p1\": 0.1, \"p3\": 0.333, \"p4\": 0.1235, "
            "\"neg\": -1, "
            "\"big\": 18446744073709551615, \"zero\": 0, \"off\": false");
}

TEST(BenchJsonTest, WriteRoundTripsRender) {
  BenchJson json("roundtrip", /*smoke=*/true);
  json.AddRow().Int("x", 1);
  const std::string path = ::testing::TempDir() + "bench_json_test.json";
  ASSERT_TRUE(json.Write(path.c_str()));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, json.Render());
  std::remove(path.c_str());

  EXPECT_FALSE(json.Write("/nonexistent-dir/bench.json"));
}

}  // namespace
}  // namespace eunomia::bench
