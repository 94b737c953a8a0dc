// Unit tests for the support module: contracts, checked arithmetic, string
// helpers, the table printer and the CLI parser.
#include "support/check.hpp"
#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "support/checked_math.hpp"
#include "support/cli.hpp"
#include "support/failpoints.hpp"
#include "support/governor.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace sdlo {
namespace {

TEST(Check, MacrosThrowTypedExceptions) {
  EXPECT_THROW([] { SDLO_EXPECTS(false); }(), ContractViolation);
  EXPECT_THROW([] { SDLO_ENSURES(1 == 2); }(), ContractViolation);
  EXPECT_THROW([] { SDLO_CHECK(false, "message"); }(), ContractViolation);
  EXPECT_NO_THROW([] { SDLO_CHECK(true, "fine"); }());
  try {
    SDLO_CHECK(false, "the-detail");
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the-detail"), std::string::npos);
  }
}

TEST(CheckedMath, AddMul) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_EQ(checked_mul(-4, 5), -20);
  EXPECT_THROW(checked_add(std::numeric_limits<std::int64_t>::max(), 1),
               ContractViolation);
  EXPECT_THROW(checked_mul(std::int64_t{1} << 40, std::int64_t{1} << 40),
               ContractViolation);
}

TEST(CheckedMath, SaturatingInfinity) {
  EXPECT_EQ(sat_add(kInfDistance, 5), kInfDistance);
  EXPECT_EQ(sat_add(5, kInfDistance), kInfDistance);
  EXPECT_EQ(sat_add(2, 3), 5);
  EXPECT_EQ(sat_mul(kInfDistance, 2), kInfDistance);
  EXPECT_EQ(sat_mul(std::int64_t{1} << 40, std::int64_t{1} << 40),
            kInfDistance);  // saturates instead of throwing
}

TEST(CheckedMath, FloorCeilDiv) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(floor_div(8, 4), 2);
  EXPECT_EQ(ceil_div(8, 4), 2);
  EXPECT_THROW(floor_div(1, 0), ContractViolation);
}

TEST(StringUtil, TrimSplit) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split_trimmed(" a , b ,, c ", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtil, Numbers) {
  EXPECT_TRUE(is_integer("42"));
  EXPECT_TRUE(is_integer("-7"));
  EXPECT_FALSE(is_integer(""));
  EXPECT_FALSE(is_integer("-"));
  EXPECT_FALSE(is_integer("4x"));
  EXPECT_EQ(parse_int("123"), 123);
  EXPECT_EQ(parse_int("-5"), -5);
  EXPECT_THROW(parse_int("12a"), ParseError);
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1000), "-1,000");
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
}

TEST(StringUtil, Identifiers) {
  EXPECT_TRUE(is_identifier("abc_1"));
  EXPECT_TRUE(is_identifier("_x"));
  EXPECT_FALSE(is_identifier("1x"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a-b"));
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22,222"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("22,222 |"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1\nb,\"22,222\"\n");
}

TEST(TextTable, CsvQuotesCellsThatNeedIt) {
  TextTable t({"tile", "note"});
  t.add_row({"(16,16,16)", "say \"hi\""});
  t.add_row({"two\nlines", "plain"});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(),
            "tile,note\n\"(16,16,16)\",\"say \"\"hi\"\"\"\n"
            "\"two\nlines\",plain\n");
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(CommandLine, ParsesForms) {
  // Note: a bare "--flag value" is greedy, so the boolean --gamma comes
  // last and the positional argument precedes the flags.
  const char* argv[] = {"prog",   "positional", "--alpha=3",
                        "--beta", "7",          "--gamma"};
  CommandLine cli(6, argv);
  cli.flag("alpha", "a").flag("beta", "b").flag("gamma", "g");
  cli.finish();
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("gamma", false));
  EXPECT_EQ(cli.positional(), (std::vector<std::string>{"positional"}));
  EXPECT_EQ(cli.get_string("alpha", ""), "3");
  EXPECT_FALSE(cli.has("beta") && false);
}

TEST(CommandLine, UnknownFlagRejected) {
  const char* argv[] = {"prog", "--nope"};
  CommandLine cli(2, argv);
  cli.flag("known", "k");
  EXPECT_THROW(cli.finish(), ParseError);
}

TEST(CommandLine, QueryingUnregisteredFlagIsAContractViolation) {
  const char* argv[] = {"prog"};
  CommandLine cli(1, argv);
  cli.flag("known", "k");
  cli.finish();
  EXPECT_THROW(cli.get_int("typo", 1), ContractViolation);
}

TEST(Governor, DeadlineNeverAndExpiry) {
  const Deadline never = Deadline::never();
  EXPECT_TRUE(never.unlimited());
  EXPECT_FALSE(never.expired());
  EXPECT_GT(never.remaining_seconds(), 1e18);

  const Deadline past = Deadline::after_seconds(0);
  EXPECT_FALSE(past.unlimited());
  EXPECT_TRUE(past.expired());
  EXPECT_LE(past.remaining_seconds(), 0.0);

  const Deadline future = Deadline::after_seconds(3600);
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining_seconds(), 3000.0);
}

TEST(Governor, CancellationSharedAcrossCopies) {
  CancellationToken a;
  CancellationToken b = a;  // same shared state
  EXPECT_FALSE(a.cancelled());
  b.request_cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(a.poll());
}

TEST(Governor, CancelAfterCountsPolls) {
  CancellationToken t;
  t.cancel_after(3);
  EXPECT_FALSE(t.poll());
  EXPECT_FALSE(t.poll());
  EXPECT_TRUE(t.poll());  // third poll trips
  EXPECT_TRUE(t.poll());  // and stays tripped
  EXPECT_TRUE(t.cancelled());
}

TEST(Governor, MemoryBudgetAccounting) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.try_reserve(60));
  EXPECT_EQ(budget.used(), 60u);
  EXPECT_FALSE(budget.try_reserve(50));  // would exceed the ceiling
  EXPECT_TRUE(budget.try_reserve(40));
  EXPECT_EQ(budget.used(), 100u);
  budget.release(60);
  EXPECT_EQ(budget.used(), 40u);

  MemoryBudget zero(0);
  EXPECT_FALSE(zero.try_reserve(1));
  EXPECT_TRUE(zero.try_reserve(0));
}

TEST(Governor, MemoryReservationRaii) {
  MemoryBudget budget(100);
  {
    MemoryReservation r(&budget, 80);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(budget.used(), 80u);
    MemoryReservation denied(&budget, 80);
    EXPECT_FALSE(denied.ok());
    MemoryReservation moved = std::move(r);
    EXPECT_TRUE(moved.ok());
  }
  EXPECT_EQ(budget.used(), 0u);  // destructor released exactly once

  MemoryReservation unlimited(nullptr, 1 << 30);
  EXPECT_TRUE(unlimited.ok());  // null budget = unlimited memory
  EXPECT_FALSE(MemoryReservation::denied().ok());
}

TEST(Governor, ShouldStopAndCheck) {
  Governor gov;
  EXPECT_FALSE(gov.should_stop());
  EXPECT_NO_THROW(gov.check("setup"));
  EXPECT_FALSE(governor_should_stop(nullptr));

  gov.cancel.request_cancel();
  EXPECT_TRUE(gov.should_stop());
  EXPECT_TRUE(governor_should_stop(&gov));
  try {
    gov.check("the-site");
    FAIL();
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind, BudgetExceeded::Kind::kCancelled);
    EXPECT_NE(std::string(e.what()).find("the-site"), std::string::npos);
  }

  Governor timed;
  timed.deadline = Deadline::after_seconds(0);
  EXPECT_TRUE(timed.should_stop());
  try {
    timed.check("sweep");
    FAIL();
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind, BudgetExceeded::Kind::kDeadline);
  }
}

TEST(Governor, CompletenessNames) {
  EXPECT_STREQ(completeness_name(Completeness::kComplete), "complete");
  EXPECT_STREQ(completeness_name(Completeness::kTruncated), "truncated");
}

TEST(Failpoints, ParseSpecForms) {
  EXPECT_EQ(failpoints::parse_spec("throw").action,
            failpoints::Action::kThrow);
  EXPECT_EQ(failpoints::parse_spec("fail").action,
            failpoints::Action::kFailAlloc);
  const auto d = failpoints::parse_spec("delay:25");
  EXPECT_EQ(d.action, failpoints::Action::kDelay);
  EXPECT_EQ(d.delay_ms, 25);
  EXPECT_THROW(failpoints::parse_spec("explode"), ParseError);
  EXPECT_THROW(failpoints::parse_spec("delay:ms"), ParseError);
  EXPECT_THROW(failpoints::parse_spec(""), ParseError);
}

TEST(Failpoints, ConfigureAndClear) {
  EXPECT_EQ(failpoints::configure("sweep-dense-alloc=fail,oracle-step=throw"),
            2);
  EXPECT_TRUE(failpoints::armed());
  EXPECT_TRUE(failpoints::fail_alloc(failpoints::kSweepDenseAlloc));
  EXPECT_THROW(failpoints::hit(failpoints::kOracleStep), InjectedFault);
  // Unarmed sites stay transparent even while others are armed.
  EXPECT_NO_THROW(failpoints::hit(failpoints::kPoolTask));
  failpoints::clear();
  EXPECT_NO_THROW(failpoints::hit(failpoints::kOracleStep));
  EXPECT_FALSE(failpoints::fail_alloc(failpoints::kSweepDenseAlloc));
  EXPECT_THROW(failpoints::configure("site-with-no-action"), ParseError);
}

TEST(Failpoints, ScopedArmAndRestore) {
  {
    failpoints::ScopedFailpoint fp(failpoints::kArtifactWrite,
                                   {failpoints::Action::kThrow, 0});
    EXPECT_THROW(failpoints::hit(failpoints::kArtifactWrite), InjectedFault);
    {
      failpoints::ScopedFailpoint inner(failpoints::kArtifactWrite,
                                        {failpoints::Action::kOff, 0});
      EXPECT_NO_THROW(failpoints::hit(failpoints::kArtifactWrite));
    }
    EXPECT_THROW(failpoints::hit(failpoints::kArtifactWrite), InjectedFault);
  }
  EXPECT_NO_THROW(failpoints::hit(failpoints::kArtifactWrite));
}

TEST(ExitCodes, Taxonomy) {
  EXPECT_EQ(to_int(ExitCode::kOk), 0);
  EXPECT_EQ(to_int(ExitCode::kError), 1);
  EXPECT_EQ(to_int(ExitCode::kTruncated), 2);
}

TEST(CommandLine, HelpReturnsFalseAndPrintsExitCodes) {
  const char* argv[] = {"prog", "--help"};
  CommandLine cli(2, argv);
  cli.flag("alpha", "the alpha flag");
  ::testing::internal::CaptureStdout();
  const bool proceed = cli.finish();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_FALSE(proceed);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("exit codes"), std::string::npos);
}

TEST(CommandLine, VersionReturnsFalse) {
  const char* argv[] = {"prog", "--version"};
  CommandLine cli(2, argv);
  ::testing::internal::CaptureStdout();
  const bool proceed = cli.finish();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_FALSE(proceed);
  EXPECT_NE(out.find(kVersionString), std::string::npos);
}

TEST(SplitMix, DeterministicAndBounded) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  SplitMix64 c(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = c.below(13);
    EXPECT_LT(v, 13u);
    const auto r = c.range(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    const double u = c.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace sdlo
