#include <gtest/gtest.h>

#include <vector>

#include "support/check.h"
#include "support/env.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/string_util.h"

namespace ramiel {
namespace {

TEST(StrCat, ConcatenatesMixedTypes) {
  EXPECT_EQ(str_cat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(str_cat(), "");
  EXPECT_EQ(str_cat(42), "42");
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitWs, DropsEmptyFields) {
  EXPECT_EQ(split_ws("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Trim, StripsWhitespaceBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(StartsWith, MatchesPrefixes) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_TRUE(starts_with("hello", ""));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_FALSE(starts_with("hello", "el"));
}

TEST(Escape, RoundTripsSpecialCharacters) {
  const std::string original = "a\"b\\c\nd";
  EXPECT_EQ(unescape(escape(original)), original);
  EXPECT_EQ(escape("plain"), "plain");
}

TEST(Escape, EscapesEachSpecialCharacter) {
  EXPECT_EQ(escape("\""), "\\\"");
  EXPECT_EQ(escape("\\"), "\\\\");
  EXPECT_EQ(escape("\n"), "\\n");
}

TEST(Unescape, ThrowsOnDanglingEscape) {
  EXPECT_THROW(unescape("abc\\"), ParseError);
  EXPECT_THROW(unescape("\\q"), ParseError);
}

TEST(Check, ThrowsWithMessage) {
  try {
    RAMIEL_CHECK(false, "context message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

TEST(Check, PassesOnTrue) {
  EXPECT_NO_THROW(RAMIEL_CHECK(true, "never"));
}

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, FloatsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.next_float(-2.0f, 3.0f);
    EXPECT_GE(f, -2.0f);
    EXPECT_LT(f, 3.0f);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, FloatsCoverTheRange) {
  Rng rng(11);
  float lo = 1.0f, hi = 0.0f;
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.next_float();
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  EXPECT_LT(lo, 0.05f);
  EXPECT_GT(hi, 0.95f);
}

TEST(Env, FallsBackWhenUnset) {
  EXPECT_EQ(env_int("RAMIEL_TEST_UNSET_VAR", 5), 5);
  EXPECT_DOUBLE_EQ(env_double("RAMIEL_TEST_UNSET_VAR", 2.5), 2.5);
  EXPECT_EQ(env_str("RAMIEL_TEST_UNSET_VAR", "dflt"), "dflt");
}

TEST(Env, ParsesSetValues) {
  ::setenv("RAMIEL_TEST_SET_VAR", "42", 1);
  EXPECT_EQ(env_int("RAMIEL_TEST_SET_VAR", 0), 42);
  ::setenv("RAMIEL_TEST_SET_VAR", "2.75", 1);
  EXPECT_DOUBLE_EQ(env_double("RAMIEL_TEST_SET_VAR", 0.0), 2.75);
  ::setenv("RAMIEL_TEST_SET_VAR", "text", 1);
  EXPECT_EQ(env_str("RAMIEL_TEST_SET_VAR", ""), "text");
  EXPECT_EQ(env_int("RAMIEL_TEST_SET_VAR", -1), -1);  // unparseable int
  ::unsetenv("RAMIEL_TEST_SET_VAR");
}

TEST(Env, ParseBucketList) {
  std::vector<double> out;
  ASSERT_TRUE(parse_bucket_list("0.5,1,2.5,10", &out));
  EXPECT_EQ(out, (std::vector<double>{0.5, 1.0, 2.5, 10.0}));
  ASSERT_TRUE(parse_bucket_list(" 1 , 2 , 3 ", &out));  // whitespace ok
  EXPECT_EQ(out.size(), 3u);
  ASSERT_TRUE(parse_bucket_list("1e-1,1e2", &out));
  EXPECT_DOUBLE_EQ(out[0], 0.1);

  // Rejected: empty, empty items, non-numeric, non-positive, non-increasing.
  EXPECT_FALSE(parse_bucket_list("", &out));
  EXPECT_FALSE(parse_bucket_list("1,,2", &out));
  EXPECT_FALSE(parse_bucket_list("1,two", &out));
  EXPECT_FALSE(parse_bucket_list("1,2x", &out));
  EXPECT_FALSE(parse_bucket_list("0,1", &out));
  EXPECT_FALSE(parse_bucket_list("-1,1", &out));
  EXPECT_FALSE(parse_bucket_list("1,1", &out));
  EXPECT_FALSE(parse_bucket_list("2,1", &out));
  EXPECT_FALSE(parse_bucket_list("1,inf", &out));  // +Inf bucket is implicit
}

TEST(Env, HistBucketsOverride) {
  const std::vector<double> fallback{1.0, 2.0};
  ::unsetenv("RAMIEL_HIST_BUCKETS");
  EXPECT_EQ(env_hist_buckets(fallback), fallback);
  ::setenv("RAMIEL_HIST_BUCKETS", "0.25,5,50", 1);
  EXPECT_EQ(env_hist_buckets(fallback),
            (std::vector<double>{0.25, 5.0, 50.0}));
  ::setenv("RAMIEL_HIST_BUCKETS", "garbage", 1);
  EXPECT_EQ(env_hist_buckets(fallback), fallback);  // invalid -> fallback
  ::unsetenv("RAMIEL_HIST_BUCKETS");
}

TEST(Env, IntraOpThreadsOverride) {
  ::unsetenv("RAMIEL_INTRA_OP_THREADS");
  EXPECT_EQ(env_intra_op_threads(3), 3);  // unset -> fallback
  ::setenv("RAMIEL_INTRA_OP_THREADS", "8", 1);
  EXPECT_EQ(env_intra_op_threads(3), 8);
  ::setenv("RAMIEL_INTRA_OP_THREADS", "0", 1);
  EXPECT_EQ(env_intra_op_threads(3), 3);  // non-positive -> fallback
  ::setenv("RAMIEL_INTRA_OP_THREADS", "-2", 1);
  EXPECT_EQ(env_intra_op_threads(3), 3);
  ::setenv("RAMIEL_INTRA_OP_THREADS", "lots", 1);
  EXPECT_EQ(env_intra_op_threads(3), 3);  // unparseable -> fallback
  ::unsetenv("RAMIEL_INTRA_OP_THREADS");
}

TEST(Env, ServeQueueDepthOverride) {
  ::unsetenv("RAMIEL_SERVE_QUEUE_DEPTH");
  EXPECT_EQ(env_serve_queue_depth(256), 256);  // unset -> fallback
  ::setenv("RAMIEL_SERVE_QUEUE_DEPTH", "1024", 1);
  EXPECT_EQ(env_serve_queue_depth(256), 1024);
  ::setenv("RAMIEL_SERVE_QUEUE_DEPTH", "0", 1);
  EXPECT_EQ(env_serve_queue_depth(256), 256);  // non-positive -> fallback
  ::setenv("RAMIEL_SERVE_QUEUE_DEPTH", "nope", 1);
  EXPECT_EQ(env_serve_queue_depth(256), 256);  // unparseable -> fallback
  ::unsetenv("RAMIEL_SERVE_QUEUE_DEPTH");
}

TEST(Env, KernelPathOverride) {
  ::unsetenv("RAMIEL_KERNEL");
  EXPECT_EQ(env_kernel_path("vector"), "vector");  // unset -> fallback
  ::setenv("RAMIEL_KERNEL", "scalar", 1);
  EXPECT_EQ(env_kernel_path("vector"), "scalar");
  ::unsetenv("RAMIEL_KERNEL");
}

TEST(Env, ParallelThresholdOverride) {
  ::unsetenv("RAMIEL_PARALLEL_THRESHOLD");
  EXPECT_EQ(env_parallel_threshold(1 << 16), 1 << 16);  // unset -> fallback
  ::setenv("RAMIEL_PARALLEL_THRESHOLD", "0", 1);
  EXPECT_EQ(env_parallel_threshold(1 << 16), 0);  // zero is a valid cutoff
  ::setenv("RAMIEL_PARALLEL_THRESHOLD", "8388608", 1);
  EXPECT_EQ(env_parallel_threshold(1 << 16), 8388608);
  ::setenv("RAMIEL_PARALLEL_THRESHOLD", "-5", 1);
  EXPECT_EQ(env_parallel_threshold(1 << 16), 1 << 16);  // negative -> fallback
  ::setenv("RAMIEL_PARALLEL_THRESHOLD", "64k", 1);
  EXPECT_EQ(env_parallel_threshold(1 << 16), 1 << 16);  // partial parse
  ::unsetenv("RAMIEL_PARALLEL_THRESHOLD");
}

TEST(Env, AutoStealCvOverride) {
  ::unsetenv("RAMIEL_AUTO_STEAL_CV");
  EXPECT_DOUBLE_EQ(env_auto_steal_cv(0.35), 0.35);  // unset -> fallback
  ::setenv("RAMIEL_AUTO_STEAL_CV", "0.8", 1);
  EXPECT_DOUBLE_EQ(env_auto_steal_cv(0.35), 0.8);
  ::setenv("RAMIEL_AUTO_STEAL_CV", "0", 1);
  EXPECT_DOUBLE_EQ(env_auto_steal_cv(0.35), 0.0);  // zero = always steal
  ::setenv("RAMIEL_AUTO_STEAL_CV", "-1", 1);
  EXPECT_DOUBLE_EQ(env_auto_steal_cv(0.35), 0.35);  // negative -> fallback
  ::setenv("RAMIEL_AUTO_STEAL_CV", "skewed", 1);
  EXPECT_DOUBLE_EQ(env_auto_steal_cv(0.35), 0.35);  // unparseable
  ::unsetenv("RAMIEL_AUTO_STEAL_CV");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  // A tiny busy loop; just assert monotonic non-negative readings.
  volatile int sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds());  // ms value >= s value numerically
  const auto t1 = Stopwatch::now_ns();
  const auto t2 = Stopwatch::now_ns();
  EXPECT_GE(t2, t1);
}

}  // namespace
}  // namespace ramiel
