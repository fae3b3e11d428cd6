// Seeded hostile-input regression net (`ctest -L hostile`; CI runs it under
// ASan and UBSan): 150 mutations each of squeezenet's text (.rml) and
// binary (.rmb) model files, of a two-tenant fleet JSON config and of a
// calibration file. A mutation must load (a model also compiles) or be
// rejected with Error; a crash, a hang or any other exception fails. Plus
// malformed serving requests, which submit() must refuse without touching
// the well-formed requests beside them.
#include <gtest/gtest.h>

#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "onnx/model_io.h"
#include "ramiel/pipeline.h"
#include "rt/inputs.h"
#include "oracle.h"
#include "serve/fleet/config.h"
#include "serve/fleet/fleet_server.h"
#include "support/check.h"
#include "support/rng.h"

namespace ramiel {
namespace {

constexpr int kMutations = 150;

/// Byte-level damage: a flipped byte, a truncation, or a run of hostile
/// bytes written over a length or dimension field.
std::string mutate_bytes(std::string s, Rng& rng) {
  const std::size_t at = rng.next_below(s.size());
  switch (rng.next_below(3)) {
    case 0:
      s[at] = static_cast<char>(rng.next_below(256));
      break;
    case 1:
      s.resize(at);
      break;
    default:
      for (std::size_t i = at; i < std::min(s.size(), at + 4); ++i) {
        s[i] = rng.next_below(2) == 0 ? '\xff' : '\x7f';
      }
      break;
  }
  return s;
}

/// Structural damage to a line-oriented text: a dropped, duplicated or
/// swapped line, a number replaced by a hostile one, a word replaced by
/// another word of the text (op kinds, value names: rewired graphs), or
/// byte-level damage.
std::string mutate_text(const std::string& text, Rng& rng) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  std::string& line = lines[rng.next_below(lines.size())];
  static const char* const kNumbers[] = {"0",   "-1",   "-3",    "1e40",
                                         "nan", "inf",  "-inf",  "2.5",
                                         "99999999999", "2147483648"};
  switch (rng.next_below(5)) {
    case 0:
      lines.erase(lines.begin() + static_cast<long>(&line - lines.data()));
      break;
    case 1:
      lines.push_back(line);
      std::swap(lines.back(), lines[rng.next_below(lines.size())]);
      break;
    case 2:
    case 3: {
      // The first token of the chosen kind at a random offset in the line.
      const bool number = rng.next_below(4) != 3;
      const std::size_t from = rng.next_below(line.size() + 1);
      const char* const set =
          number ? "-0123456789.e" : "abcdefghijklmnopqrstuvwxyz_";
      const std::size_t a = line.find_first_of(set, from);
      if (a == std::string::npos) break;
      const std::size_t b =
          std::min(line.find_first_not_of(set, a), line.size());
      std::string other;
      if (number) {
        other = kNumbers[rng.next_below(std::size(kNumbers))];
      } else {
        const std::string& donor = lines[rng.next_below(lines.size())];
        const std::size_t c = donor.find_first_of(set);
        if (c == std::string::npos) break;
        other = donor.substr(c, donor.find_first_not_of(set, c) - c);
      }
      line.replace(a, b - a, other);
      break;
    }
    default:
      return mutate_bytes(text, rng);
  }
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// Runs `load` on each seeded mutation of `base`; only Error may escape.
template <typename Mutate, typename Load>
void expect_loads_or_rejects(const std::string& base, std::uint64_t seed,
                             Mutate mutate, Load load) {
  Rng rng(seed);
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutate(base, rng);
    SCOPED_TRACE("mutation " + std::to_string(i));
    try {
      load(input);
    } catch (const Error&) {
    }
  }
}

void compile(Graph g) {
  PipelineOptions opts;
  opts.generate_code = false;
  compile_model(std::move(g), opts);
}

TEST(HostileInput, TextModelMutationsLoadOrThrowError) {
  expect_loads_or_rejects(
      save_model_text(models::build("squeezenet")), 1, mutate_text,
      [](const std::string& text) { compile(load_model_text(text)); });
}

TEST(HostileInput, BinaryModelMutationsLoadOrThrowError) {
  std::ostringstream os;
  save_model_binary(models::build("squeezenet"), os);
  expect_loads_or_rejects(os.str(), 2, mutate_bytes,
                          [](const std::string& bytes) {
                            std::istringstream is(bytes);
                            compile(load_model_binary(is));
                          });
}

TEST(HostileInput, FleetConfigMutationsParseOrReport) {
  const std::string config =
      "{\"pool\":\"shared\",\"aging_ms\":50,\"models\":[\n"
      "{\"name\":\"squeezenet\",\"batch\":4,\"weight\":2,\"quota_rps\":100,\n"
      "\"pipeline_stages\":3,\"executor\":\"static\",\"dtype\":\"f16\"},\n"
      "{\"name\":\"plain\",\"model\":\"bert\",\"batch\":1,\"fold\":true,\n"
      "\"hyper\":\"switched\",\"queue_depth\":8}]}\n";
  serve::fleet::FleetConfig parsed;
  ASSERT_TRUE(serve::fleet::parse_fleet_config(config, &parsed));
  expect_loads_or_rejects(config, 3, mutate_text, [](const std::string& json) {
    serve::fleet::FleetConfig out;
    std::string error;
    if (!serve::fleet::parse_fleet_config(json, &out, &error)) {
      EXPECT_FALSE(error.empty());
    }
  });
}

TEST(HostileInput, MalformedRequestsAreRefusedAtSubmit) {
  // Requests with a wrong-shape tensor, a missing input or a wrong-dtype
  // tensor, submitted between good ones to a batch-4 tenant: each is
  // refused at once with a reason naming the input, and the good ones are
  // served exactly as the f32 sequential run answers them.
  serve::fleet::FleetServer server(
      serve::fleet::single_tenant_config("squeezenet"));
  const Graph& graph = server.model_entry("squeezenet")->compiled.graph;
  const std::string input = graph.value(graph.inputs()[0]).name;
  Rng rng(11);
  const std::vector<TensorMap> good = make_example_inputs(graph, 3, rng);
  TensorMap wrong_shape = good[0];
  wrong_shape.at(input) = Tensor(Shape{1, 3, 8, 8});
  TensorMap wrong_dtype = good[0];
  wrong_dtype.at(input) = good[0].at(input).cast(DType::kF16);
  const std::vector<std::pair<TensorMap, std::string>> bad = {
      {wrong_shape, "has shape"},
      {TensorMap{}, "missing input"},
      {wrong_dtype, "has dtype f16"}};

  std::vector<std::future<serve::Response>> served, refused;
  for (std::size_t i = 0; i < good.size(); ++i) {
    served.push_back(server.submit("squeezenet", TensorMap(good[i])));
    refused.push_back(server.submit("squeezenet", TensorMap(bad[i].first)));
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    ASSERT_EQ(refused[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const serve::Response r = refused[i].get();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("'" + input + "'"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find(bad[i].second), std::string::npos) << r.error;
    EXPECT_EQ(r.batch_slots, 0);
  }
  std::vector<TensorMap> outputs;
  for (auto& f : served) {
    serve::Response r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    outputs.push_back(std::move(r.outputs));
  }
  oracle::expect_bit_identical(SequentialExecutor(&graph).run(good), outputs);
  server.shutdown();
  const serve::ServerStats stats = server.tenant_stats("squeezenet");
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(HostileInput, CalibrationMutationsLoadOrThrowError) {
  const Graph g = models::build("squeezenet");
  std::string calib;
  for (const Value& v : g.values()) {
    calib += v.name + "\t" + std::to_string(0.5 + v.id % 7) + "\n";
  }
  const std::string path = ::testing::TempDir() + "/hostile.calib";
  expect_loads_or_rejects(calib, 4, mutate_text,
                          [&path](const std::string& text) {
                            std::ofstream(path) << text;
                            load_calibration(path);
                          });
}

}  // namespace
}  // namespace ramiel
