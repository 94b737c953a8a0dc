// Fault-injection matrix and governed-cancellation stress tests.
//
// The resource-governance layer (support/governor.hpp) and the failpoint
// harness (support/failpoints.hpp) together make one promise: whatever a
// registered failpoint injects — a thrown fault, a denied allocation, a
// delay — every driver either completes normally, returns a truncated-but-
// valid partial result, or surfaces a typed sdlo::Error. It never crashes,
// never std::terminates, never hangs. The matrix test below walks every
// registered site crossed with every action over a battery of
// representative driver operations and enforces exactly that contract.
//
// The stress tests cancel a pooled sweep from a second thread mid-walk;
// they are the designated ThreadSanitizer workload for the governor (the
// CI tsan job runs this binary).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/advisor.hpp"
#include "analysis/misses_driver.hpp"
#include "analysis/sweep_driver.hpp"
#include "cachesim/parallel_stack.hpp"
#include "cachesim/sim.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/reducer.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"
#include "support/failpoints.hpp"
#include "support/governor.hpp"
#include "tile/fast_model.hpp"
#include "tile/search.hpp"
#include "trace/walker.hpp"

namespace sdlo {
namespace {

trace::CompiledProgram small_program() {
  const auto g = ir::matmul_tiled();
  return trace::CompiledProgram(g.prog, g.make_env({8, 8, 8}, {4, 4, 4}));
}

// Per-process scratch paths: ctest runs the test cases concurrently.
std::string scratch_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("sdlo_robust_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

std::string serve_socket_path(const std::string& tag) {
  return scratch_path("serve_" + tag + ".sock");
}

constexpr const char* kServeProgram =
    "for i<N>, j<N> {\n  S1: B[i] += A[j]\n}\n";

std::string serve_request_line(const std::string& id) {
  return "{\"id\":\"" + id + "\",\"verb\":\"misses\",\"program\":\"" +
         serve::json_escape(kServeProgram) + "\",\"env\":{\"N\":8}}";
}

/// One named driver operation for the matrix. Each must be self-contained
/// (build its own pools/files) so a fault in one run cannot poison the next.
struct Operation {
  std::string name;
  std::function<void()> run;
};

std::vector<Operation> operations() {
  std::vector<Operation> ops;
  ops.push_back({"sweep-serial", [] {
                   const auto cp = small_program();
                   cachesim::simulate_sweep_streamed(cp,
                                                     {{64, 1}, {256, 4}});
                 }});
  ops.push_back({"sweep-pooled", [] {
                   parallel::ThreadPool pool(2);
                   const auto cp = small_program();
                   cachesim::simulate_sweep_streamed(
                       cp, {{16, 1}, {1024, 1}}, &pool);
                 }});
  ops.push_back({"sweep-streamed", [] {
                   parallel::ThreadPool pool(2);
                   const auto cp = small_program();
                   cachesim::StreamOptions opt;
                   opt.partition.chunks = 3;
                   cachesim::simulate_sweep_streamed(
                       cp, {{16, 1}, {1024, 1}}, &pool, opt);
                 }});
  ops.push_back({"sweep-symbolic", [] {
                   // The analytic engine plus its simulation fallback path.
                   const auto g = ir::matmul_tiled();
                   analysis::SweepDriverOptions opts;
                   opts.engine = analysis::SweepEngine::kSymbolic;
                   analysis::run_sweep(g.prog,
                                       g.make_env({8, 8, 8}, {4, 4, 4}),
                                       opts);
                 }});
  ops.push_back({"spool-roundtrip", [] {
                   const auto path = scratch_path("spool.spl");
                   const auto cp = small_program();
                   trace::spool_program(path, cp);
                   const trace::SpooledTrace spool(path);
                   std::uint64_t groups = 0;
                   spool.walk_runs(
                       [&](const trace::Run*, std::size_t) { ++groups; });
                   SDLO_CHECK(groups == cp.group_count(),
                              "spool lost groups");
                   std::filesystem::remove(path);
                 }});
  ops.push_back({"profiler", [] {
                   const auto cp = small_program();
                   cachesim::profile_stack_distances(cp, 1);
                 }});
  ops.push_back({"pool-batch", [] {
                   parallel::ThreadPool pool(2);
                   std::atomic<int> n{0};
                   for (int i = 0; i < 16; ++i) {
                     pool.submit([&n] { n.fetch_add(1); });
                   }
                   pool.wait_idle();
                 }});
  ops.push_back({"advise", [] {
                   const auto g = ir::matmul_tiled();
                   analysis::AdvisorOptions opts;
                   opts.capacity = 64;
                   opts.max_band_loops = 4;
                   opts.max_candidates = 8;
                   opts.tile_sizes = {2};
                   analysis::advise(g.prog,
                                    g.make_env({8, 8, 8}, {4, 4, 4}), opts);
                 }});
  ops.push_back({"tile-search", [] {
                   const auto g = ir::matmul_tiled();
                   const auto an = model::analyze(g.prog);
                   tile::FastMissModel fast(an);
                   tile::SearchOptions opts;
                   opts.max_tile = 16;
                   tile::search_tiles(g, fast, {16, 16, 16}, 256, opts);
                 }});
  ops.push_back({"artifact-write", [] {
                   const std::filesystem::path dir =
                       scratch_path("artifacts");
                   std::filesystem::create_directories(dir);
                   const auto path = (dir / "artifact.sdlo").string();
                   const auto g = ir::matmul_tiled();
                   fuzz::write_artifact_file(
                       path, fuzz::to_artifact(
                                 g.prog, g.make_env({4, 4, 4}, {2, 2, 2})));
                   std::filesystem::remove_all(dir);
                 }});
  ops.push_back({"serve", [] {
                   // Full daemon round trip: start, ping, one analysis
                   // request, stop. Under an injected serve-site fault the
                   // faulted connection is dropped (the client surfaces a
                   // typed Error), but the daemon must neither crash nor
                   // hang — the Server destructor completes teardown even
                   // when the client path throws mid-operation.
                   serve::ServerOptions opts;
                   opts.socket_path = serve_socket_path("matrix");
                   opts.workers = 2;
                   serve::Server server(opts);
                   server.start_background();
                   serve::Client client(opts.socket_path);
                   client.send_line("{\"id\":\"p\",\"verb\":\"ping\"}");
                   (void)serve::parse_response(client.recv_line(1500));
                   client.send_line(serve_request_line("m"));
                   (void)serve::parse_response(client.recv_line(1500));
                   server.stop();
                 }});
  ops.push_back({"oracle-battery", [] {
                   const auto g = ir::matmul_tiled();
                   fuzz::OracleOptions opts;
                   // Keep the matrix fast: the cheap families plus the
                   // governed step polling. The serve family is left out:
                   // its in-process Service reaches no failpoint site (the
                   // serve sites are the `serve` operation's).
                   fuzz::apply_family_filter(
                       opts, "roundtrip,walker,lint,dependence,advise");
                   const auto report = fuzz::check_program(
                       g.prog, g.make_env({4, 4, 4}, {2, 2, 2}), opts);
                   SDLO_CHECK(report.ok(), "oracle mismatch under injection");
                 }});
  return ops;
}

TEST(Robustness, FailpointMatrixNeverCrashesOrHangs) {
  // Every site x action x operation: the operation either completes or
  // throws a typed sdlo::Error. A crash or a foreign exception fails the
  // whole binary — which is the point.
  const std::vector<failpoints::Spec> actions{
      {failpoints::Action::kThrow, 0},
      {failpoints::Action::kFailAlloc, 0},
      {failpoints::Action::kDelay, 1},
  };
  const auto ops = operations();
  for (const char* site : failpoints::kAllSites) {
    for (const auto& spec : actions) {
      failpoints::ScopedFailpoint fp(site, spec);
      for (const auto& op : ops) {
        try {
          op.run();
        } catch (const Error&) {
          // Typed failure: acceptable under injection.
        } catch (...) {
          ADD_FAILURE() << op.name << " under " << site
                        << " raised a non-sdlo exception";
        }
      }
    }
  }
  EXPECT_FALSE(failpoints::armed());  // every scope restored itself
}

TEST(Robustness, DeniedSweepTruncatesAndKeepsNoSpool) {
  // A denial that reaches the engine's last rung — the dense-alloc
  // failpoint, or a zero budget — never exceeds the budget: the sweep
  // driver reports the empty prefix with exit code 2, and keeps no spool,
  // since nothing was walked.
  const auto g = ir::matmul_tiled();
  const sym::Env env = g.make_env({8, 8, 8}, {4, 4, 4});
  for (const bool failpoint : {true, false}) {
    const std::string what = failpoint ? "failpoint" : "zero budget";
    analysis::SweepDriverOptions opts;
    opts.threads = 2;
    opts.spool_path = scratch_path("denied.spl");
    MemoryBudget zero(0);
    Governor gov;
    if (!failpoint) gov.memory = &zero;
    std::optional<failpoints::ScopedFailpoint> fp;
    if (failpoint) {
      fp.emplace(failpoints::kSweepDenseAlloc,
                 failpoints::Spec{failpoints::Action::kFailAlloc, 0});
    }
    const auto oc = analysis::run_sweep(g.prog, env, opts, &gov);
    EXPECT_TRUE(oc.truncated()) << what;
    EXPECT_EQ(oc.exit_code(), 2) << what;
    EXPECT_EQ(oc.accesses, 0u) << what;
    for (const auto& r : oc.rows) EXPECT_EQ(r.misses, 0u) << what;
    EXPECT_TRUE(oc.spool_path.empty()) << what;
    EXPECT_FALSE(std::filesystem::exists(opts.spool_path)) << what;
    EXPECT_EQ(zero.used(), 0u) << what;
  }
}

TEST(Robustness, ConcurrentCancelMidPooledSweepIsClean) {
  // The TSan workload: a second thread trips the shared token while four
  // workers profile the pool's default chunking. Every iteration must
  // return promptly with each result either complete or a valid truncated
  // prefix.
  const auto g = ir::matmul();
  trace::CompiledProgram cp(g.prog, g.make_env({48, 48, 48}, {}));
  std::vector<cachesim::SweepConfig> configs;
  for (std::int64_t cap : {8, 64, 512, 4096}) {
    configs.push_back({cap, 1});
  }
  const auto full = fuzz::reference_sweep(cp, configs);
  parallel::ThreadPool pool(4);
  for (int iter = 0; iter < 5; ++iter) {
    Governor gov;
    gov.poll_interval = 64;
    std::jthread canceller([&gov, iter] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * iter));
      gov.cancel.request_cancel();
    });
    const auto part =
        cachesim::simulate_sweep_streamed(cp, configs, &pool, {}, &gov);
    canceller.join();
    ASSERT_EQ(part.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_LE(part[i].accesses, full[i].accesses);
      EXPECT_LE(part[i].misses, full[i].misses);
      if (part[i].completeness == Completeness::kComplete) {
        EXPECT_EQ(part[i].misses, full[i].misses) << "iter " << iter;
      }
    }
  }
}

TEST(Robustness, ConcurrentCancelMidPartitionedSweepIsClean) {
  // Same TSan workload for the time-partitioned engine: the shared token
  // trips while four workers profile their chunks concurrently. The merged
  // result must be a valid prefix simulation (or complete), every time.
  const auto g = ir::matmul();
  trace::CompiledProgram cp(g.prog, g.make_env({48, 48, 48}, {}));
  std::vector<cachesim::SweepConfig> configs;
  for (std::int64_t cap : {8, 64, 512, 4096}) {
    configs.push_back({cap, 1});
  }
  const auto full = fuzz::reference_sweep(cp, configs);
  parallel::ThreadPool pool(4);
  for (int iter = 0; iter < 5; ++iter) {
    Governor gov;
    gov.poll_interval = 64;
    std::jthread canceller([&gov, iter] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * iter));
      gov.cancel.request_cancel();
    });
    cachesim::StreamOptions opt;
    opt.partition.chunks = 4;
    const auto part = cachesim::simulate_sweep_streamed(cp, configs, &pool,
                                                        opt, &gov);
    canceller.join();
    ASSERT_EQ(part.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_LE(part[i].accesses, full[i].accesses);
      EXPECT_LE(part[i].misses, full[i].misses);
      if (part[i].completeness == Completeness::kComplete) {
        EXPECT_EQ(part[i].misses, full[i].misses) << "iter " << iter;
      }
    }
  }
}

TEST(Robustness, ConcurrentServeWorkloadIsClean) {
  // The serve daemon's TSan workload (the CI tsan job runs this binary):
  // four client threads hammer one daemon whose admission bound is small
  // enough that shedding, retry, memo-cache hits and out-of-order pipeline
  // completion all happen concurrently. Every terminal response must be
  // well-formed; an `ok` payload must carry exactly the shared emitter's
  // bytes (a corrupted concurrent write could not parse, let alone match).
  serve::ServerOptions opts;
  opts.socket_path = serve_socket_path("tsan");
  opts.workers = 4;
  opts.service.max_active = 2;
  serve::Server server(opts);
  server.start_background();

  const auto prog = ir::parse_program(kServeProgram);
  analysis::MissesOptions mo;
  const auto oc = analysis::run_misses(prog, {{"N", 8}}, mo);
  std::ostringstream os;
  analysis::render_misses_json(oc, os);
  std::string expected = os.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();

  std::atomic<int> bad{0};
  std::atomic<int> ok_count{0};
  std::vector<std::jthread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::Client client(opts.socket_path);
        serve::BackoffPolicy policy;
        policy.max_attempts = 6;
        const auto no_sleep = [](int) {};
        for (int i = 0; i < 6; ++i) {
          const auto id = std::to_string(c) + "-" + std::to_string(i);
          const auto out = serve::request_with_retry(
              client, serve_request_line(id), policy, no_sleep);
          const auto& resp = out.response;
          if (resp.status == serve::Status::kOk) {
            ok_count.fetch_add(1);
            if (resp.payload != expected) bad.fetch_add(1);
          } else if (resp.status != serve::Status::kRejected) {
            bad.fetch_add(1);  // only ok or honest shed is acceptable
          }
          if (i % 3 == 0) {
            const auto stats =
                client.request("{\"id\":\"s\",\"verb\":\"stats\"}");
            if (stats.status != serve::Status::kOk) bad.fetch_add(1);
          }
        }
      } catch (const Error&) {
        bad.fetch_add(1);
      }
    });
  }
  clients.clear();  // join
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(ok_count.load(), 1);
  server.stop();
  const auto snap = server.service().metrics().snapshot();
  EXPECT_EQ(snap.connections, snap.connections_closed);
}

TEST(Robustness, DeadlineStopsLongGovernedRunPromptly) {
  // A short real deadline on a repeated sweep must stop the loop within a
  // small multiple of the deadline (seconds, not the full workload).
  const auto g = ir::matmul();
  trace::CompiledProgram cp(g.prog, g.make_env({32, 32, 32}, {}));
  Governor gov;
  gov.deadline = Deadline::after_seconds(0.05);
  gov.poll_interval = 16;
  const auto start = std::chrono::steady_clock::now();
  const auto seconds_since_start = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  bool saw_truncation = false;
  while (!saw_truncation && seconds_since_start() < 4.0) {
    const auto res = cachesim::simulate_sweep_streamed(
        cp, {{64, 1}}, nullptr, {}, &gov);
    saw_truncation = res[0].completeness == Completeness::kTruncated;
  }
  const auto elapsed = seconds_since_start();
  EXPECT_TRUE(saw_truncation);
  EXPECT_LT(elapsed, 5.0);  // generous bound for loaded CI machines
}

TEST(Robustness, ExpiredDeadlineTruncatesSymbolicSweepToExitCode2) {
  // An already-expired deadline is the deterministic worst case: the
  // symbolic evaluation loop must stop at its first poll, surface the
  // best-so-far partial curve (here: the empty lower bound), and report
  // exit code 2 — never crash, never answer as if complete.
  const auto g = ir::two_index_tiled();
  const sym::Env env = g.make_env({16, 16, 16, 16}, {4, 8, 8, 4});
  analysis::SweepDriverOptions opts;
  opts.engine = analysis::SweepEngine::kSymbolic;
  const auto full = analysis::run_sweep(g.prog, env, opts);
  ASSERT_EQ(full.engine, "symbolic");
  ASSERT_FALSE(full.truncated());

  Governor gov;
  gov.deadline = Deadline::after_seconds(0.0);
  gov.poll_interval = 16;
  const auto part = analysis::run_sweep(g.prog, env, opts, &gov);
  EXPECT_EQ(part.engine, "symbolic");
  EXPECT_FALSE(part.fell_back);  // truncation is not a fallback
  EXPECT_TRUE(part.truncated());
  EXPECT_EQ(part.exit_code(), 2);
  // Every ladder row is present and a lower bound of the full curve.
  ASSERT_EQ(part.rows.size(), full.rows.size());
  for (std::size_t i = 0; i < part.rows.size(); ++i) {
    EXPECT_LE(part.rows[i].misses, full.rows[i].misses)
        << "cap=" << part.capacities[i];
  }
}

}  // namespace
}  // namespace sdlo
