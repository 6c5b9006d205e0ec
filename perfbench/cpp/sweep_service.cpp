// sweep_service: the daemon path researchers use to produce the paper's SR
// figures.  A closed loop: `kClients` service::Client connections each
// submit a RunSpec DAG job to a swapgamed child process and wait for its
// `done` before sending the next one.
//
// Fresh jobs draw a new parameter point around Table III (alpha, r, the
// two confirmation times, sigma, mu, P* and the collateral Q), so every
// fresh kSrGrid cell pays its own feasible-band scan instead of hitting
// the process-wide band memo.  A third of the fresh jobs are such SR
// panels; the rest are point probes of three analytic cells.  35% of the
// jobs, evenly spaced, resubmit an earlier fresh job the seed picks: those
// cells are cache reads, the fresh ones are evaluations plus cache writes.
// Both shares are assumptions, not measured traffic (see README.md).  The
// run's distinct cells, warm-up included, stay below the daemon's LRU
// capacity, so hits never depend on eviction; that holds up to
// --seconds 20.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "engine/batch_engine.hpp"
#include "model/solver_cache.hpp"
#include "obs/json.hpp"
#include "service/client.hpp"
#include "sweep/sweep.hpp"

extern char** environ;

namespace perfbench {
namespace {

using swapgame::Status;
namespace engine = swapgame::engine;
namespace model = swapgame::model;
namespace service = swapgame::service;

constexpr int kClients = 2;
/// Jobs per second of --seconds (about one second of work per 100 jobs on
/// the reference host).
constexpr double kJobsPerSecond = 100.0;
/// Share of jobs that resubmit an earlier job.  Assumed: the midpoint of
/// the repo's two service flows, 1 duplicate cell in the 5-cell demo DAG
/// and the cold-then-warm resubmit of docs/SERVICE.md (1 job in 2).
constexpr double kResubmitShare = 0.35;
/// Every third fresh job is an SR panel; the rest are point probes.
/// Assumed, with no traffic data to derive it from.
constexpr std::size_t kPanelEvery = 3;
/// A resubmit targets a fresh job at least this many jobs back, so its
/// first evaluation has normally finished by then.
constexpr std::size_t kResubmitLag = 8;
constexpr int kGridPoints = 8;
constexpr std::size_t kDaemonLruCapacity = 4096;
/// Cells in every fresh job, panel or probe.
constexpr std::size_t kJobCells = 3;
/// Set-up batches (of daemon starts of ~3 ms each) timed before and after
/// the timed loop.
constexpr int kSetupBatches = 6;
constexpr int kSetupBatch = 4;
constexpr std::size_t kWarmupJobs = 12;

struct Job {
  std::vector<engine::BatchNode> nodes;
  long resubmit_of = -1;  ///< fresh job whose cells this one repeats
};

model::SwapParams draw_params(Draw& d) {
  model::SwapParams p = model::SwapParams::table3_defaults();
  p.alice.alpha = 0.3 * d.uniform(0.7, 1.3);
  p.bob.alpha = 0.3 * d.uniform(0.7, 1.3);
  p.alice.r = 0.01 * d.uniform(0.7, 1.3);
  p.bob.r = 0.01 * d.uniform(0.7, 1.3);
  p.tau_a = 3.0 * d.uniform(0.85, 1.15);
  p.tau_b = 4.0 * d.uniform(0.85, 1.15);
  p.gbm.sigma = 0.1 * d.uniform(0.7, 1.3);
  p.gbm.mu = 0.002 * d.uniform(0.5, 1.5);
  return p;
}

engine::RunSpec analytic(const model::SwapParams& params, double p_star,
                         double collateral) {
  engine::RunSpec spec;
  spec.kind = engine::CellKind::kAnalyticSr;
  spec.mc.params = params;
  spec.mc.p_star = p_star;
  spec.mc.collateral = collateral;
  return spec;
}

/// One fresh job at a new parameter point.  A panel job is the Fig. 6
/// primitive over the feasible band (ordered after a cheap analytic cell)
/// plus analytic SR without and with collateral; a probe job is three
/// analytic cells at two rates.
std::vector<engine::BatchNode> fresh_job(Draw& d, bool panel) {
  const model::SwapParams params = draw_params(d);
  const double p_star = d.uniform(1.8, 2.2);
  const double collateral = d.uniform(0.1, 1.0);
  if (panel) {
    engine::RunSpec grid;
    grid.kind = engine::CellKind::kSrGrid;
    grid.mc.params = params;
    grid.grid_count = kGridPoints - 1;
    grid.grid_denom = kGridPoints - 1;
    return {{analytic(params, p_star, 0.0), {}},
            {analytic(params, p_star, collateral), {}},
            {grid, {0}}};
  }
  const double other_rate = d.uniform(1.8, 2.2);
  return {{analytic(params, p_star, 0.0), {}},
          {analytic(params, p_star, collateral), {}},
          {analytic(params, other_rate, d.uniform(0.1, 1.0)), {0}}};
}

std::vector<Job> make_jobs(const Options& opts) {
  Draw d(opts.seed ^ 0x5eed5e11ULL);
  const std::size_t n =
      static_cast<std::size_t>(kJobsPerSecond * opts.seconds + 0.5);
  std::vector<Job> jobs(std::max<std::size_t>(n, 1));
  std::vector<std::size_t> fresh;
  // The warm-up's cells share the daemon's LRU with the run's.
  std::size_t distinct = kWarmupJobs * kJobCells;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // Exact shares (the seed only picks parameters and targets), so the
    // read/write mix is the same in every run.
    const bool resubmit =
        j > kResubmitLag &&
        std::floor((j + 1) * kResubmitShare) > std::floor(j * kResubmitShare);
    std::size_t eligible = 0;
    while (eligible < fresh.size() && fresh[eligible] + kResubmitLag <= j) {
      ++eligible;
    }
    if (resubmit && eligible > 0) {
      const std::size_t target = fresh[d.below(eligible)];
      jobs[j].nodes = jobs[target].nodes;
      jobs[j].resubmit_of = static_cast<long>(target);
    } else {
      jobs[j].nodes = fresh_job(d, fresh.size() % kPanelEvery == 0);
      fresh.push_back(j);
      distinct += jobs[j].nodes.size();
    }
  }
  if (distinct >= kDaemonLruCapacity) {
    throw std::runtime_error(
        "sweep_service: " + std::to_string(distinct) +
        " distinct cells would not fit the daemon's LRU of " +
        std::to_string(kDaemonLruCapacity) + "; --seconds 20 is the most");
  }
  return jobs;
}

/// A swapgamed child process on a socket under out_dir.
class DaemonProcess {
 public:
  DaemonProcess(const Options& opts, int index) {
    socket_ = opts.out_dir + "/sg" + std::to_string(::getpid()) + "-" +
              std::to_string(index) + ".sock";
    const std::string threads = std::to_string(opts.threads);
    std::vector<std::string> args = {opts.daemon_path, "--socket", socket_,
                                     "--threads", threads};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The daemon's own log lines go to a file, not into the results.
    const std::string log = opts.out_dir + "/swapgamed.log";
    posix_spawn_file_actions_t files;
    posix_spawn_file_actions_init(&files);
    posix_spawn_file_actions_addopen(&files, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&files, 1, 2);
    const int rc = posix_spawn(&pid_, opts.daemon_path.c_str(), &files,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&files);
    if (rc != 0) throw std::runtime_error("cannot start " + opts.daemon_path);
  }
  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Connects `client`, retrying while the daemon binds its socket.
  void connect(service::Client& client) const {
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      if (client.connect(socket_).is_ok()) return;
      if (seconds_since(t0) > 20.0) {
        throw std::runtime_error("cannot connect to swapgamed");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  [[nodiscard]] int pid() const { return pid_; }

  /// Asks the daemon to shut down through `client`, then reaps it (killing
  /// it if it does not exit in time).
  void stop(service::Client* client = nullptr) {
    if (pid_ <= 0) return;
    if (client != nullptr) (void)client->shutdown_server();
    int status = 0;
    const Clock::time_point t0 = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > (client != nullptr ? 20.0 : 0.0)) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

struct DaemonCounters {
  double jobs = 0, rejected = 0, cells_failed = 0, cells_run = 0,
         cache_hits = 0, cells_total = 0;
};

DaemonCounters read_counters(service::Client& client) {
  std::string raw;
  DaemonCounters c;
  if (!client.server_stats(&raw).is_ok()) return c;
  swapgame::obs::json::Value root;
  if (!swapgame::obs::json::parse(raw, root).is_ok()) return c;
  const auto get = [&](const char* section, const char* key) {
    const auto* s = root.find(section);
    const auto* v = s != nullptr ? s->find(key) : nullptr;
    return v != nullptr ? static_cast<double>(v->as_u64()) : 0.0;
  };
  c.jobs = get("daemon", "jobs_accepted");
  c.rejected = get("daemon", "jobs_rejected");
  c.cells_failed = get("daemon", "cells_failed");
  c.cells_run = get("engine", "cells_run");
  c.cells_total = get("engine", "cells_total");
  c.cache_hits = get("engine", "memory_hits") + get("engine", "disk_hits") +
                 get("engine", "cells_resumed");
  return c;
}

/// Everything one closed-loop pass measured.
struct LoopResult {
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< per job, job order
  std::uint64_t cells = 0;
  std::uint64_t cached_cells = 0;
  DaemonCounters daemon;
  double daemon_rss_mb = 0.0;
};

/// Runs every job through `daemon` from kClients closed-loop clients.
LoopResult closed_loop(const std::vector<Job>& jobs, DaemonProcess& daemon,
                       std::vector<service::Client>& clients, Outcome& out,
                       Tracer* tracer) {
  LoopResult r;
  r.latency_ms.assign(jobs.size(), 0.0);
  std::vector<std::vector<std::string>> first_bytes(jobs.size());
  std::vector<char> done(jobs.size(), 0);
  std::mutex mutex;  // guards done, first_bytes, out, r's counters
  std::condition_variable cv;
  std::atomic<std::size_t> next{0};

  const auto client_loop = [&](service::Client& client) {
    for (std::size_t j = next++; j < jobs.size(); j = next++) {
      const Job& job = jobs[j];
      if (job.resubmit_of >= 0) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return done[job.resubmit_of] != 0; });
      }
      service::Client::SubmitOutcome outcome;
      Status status;
      double ms = 0.0;
      {
        const Tracer::Scope span =
            Tracer::span(tracer, "service", "Client::submit", j + 1);
        status = client.submit(job.nodes, &outcome);
        ms = span.elapsed() * 1e3;
      }
      std::vector<std::string> bytes;
      for (std::size_t i = 0; i < outcome.results.size(); ++i) {
        bytes.push_back(outcome.results[i].to_entry(job.nodes[i].spec.hash()));
      }
      std::lock_guard<std::mutex> lock(mutex);
      r.latency_ms[j] = ms;
      out.op(status.is_ok());  // the job: accepted and every cell ok
      for (std::size_t i = 0; i < job.nodes.size(); ++i) {
        out.op(i < outcome.cell_status.size() && outcome.cell_status[i].is_ok());
      }
      r.cells += outcome.cells;
      r.cached_cells += outcome.cached_cells;
      if (job.resubmit_of >= 0) {
        const std::vector<std::string>& first = first_bytes[job.resubmit_of];
        out.check(bytes == first,
                  "job " + std::to_string(j) + " resubmit of job " +
                      std::to_string(job.resubmit_of) +
                      " returned different bytes");
      } else {
        first_bytes[j] = std::move(bytes);
      }
      done[j] = 1;
      cv.notify_all();
    }
  };

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (service::Client& c : clients) {
    threads.emplace_back(client_loop, std::ref(c));
  }
  for (std::thread& t : threads) t.join();
  r.wall_s = seconds_since(t0);

  r.daemon = read_counters(clients[0]);
  r.daemon_rss_mb = peak_rss_mb(daemon.pid());
  daemon.stop(&clients[0]);
  return r;
}

/// Untimed fresh jobs at parameter points of their own (their cells are
/// never resubmitted), so the timed loop starts with the daemon warm.
void warm_up(const Options& opts, std::vector<service::Client>& clients,
             Outcome& out) {
  Draw d(~opts.seed);
  for (std::size_t j = 0; j < kWarmupJobs; ++j) {
    service::Client::SubmitOutcome outcome;
    out.op(clients[j % clients.size()]
               .submit(fresh_job(d, j % kPanelEvery == 0), &outcome)
               .is_ok());
  }
}

/// A running daemon with every client connected.
struct Server {
  std::unique_ptr<DaemonProcess> daemon;
  std::vector<service::Client> clients;

  void stop() { daemon->stop(&clients[0]); }
};

Server start(const Options& opts, int index) {
  Server s;
  s.daemon = std::make_unique<DaemonProcess>(opts, index);
  s.clients = std::vector<service::Client>(kClients);
  for (service::Client& c : s.clients) s.daemon->connect(c);
  return s;
}

/// One set-up: a daemon started and every client connected.  It waits in
/// `started` to be stopped after its batch, out of the set-up's time.
SetupTimer daemon_setup(const Options& opts, int& index,
                        std::vector<Server>& started) {
  return SetupTimer(kSetupBatch, [&opts, &index, &started] {
    started.push_back(start(opts, index++));
  });
}

/// Times `kSetupBatches` set-up batches, stopping each batch's daemons
/// after it.
void sample_setup(SetupTimer& setup, std::vector<Server>& started) {
  for (int k = 0; k < kSetupBatches; ++k) {
    (void)setup.sample();
    for (Server& s : started) s.stop();
    started.clear();
  }
}

/// The traced replay: the same jobs, in order, on an in-process
/// BatchEngine whose cells run in parallel on a private pool.  Gives the
/// engine-side numbers and each job's engine wall time.
void replay(const Options& opts, const std::vector<Job>& jobs,
            const std::vector<double>& latency_ms, Tracer* tracer,
            Outcome& out) {
  engine::EngineConfig config;
  config.threads = 1;
  config.memory_capacity = kDaemonLruCapacity;
  engine::BatchEngine eng(config);
  swapgame::sweep::ThreadPool pool(opts.threads);
  swapgame::sweep::SweepOptions sweep_opts;
  sweep_opts.pool = &pool;
  sweep_opts.fixed_chunk = 1;

  std::vector<double> lookup_us, eval_grid_ms, eval_analytic_ms, wait_ms;
  std::mutex mutex;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const Tracer::Scope job_span =
        Tracer::span(tracer, "engine", "replay_job", j + 1);
    const std::uint32_t parent = job_span.id();
    swapgame::sweep::parallel_for(
        job.nodes.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const engine::RunSpec& spec = job.nodes[i].spec;
            engine::CellSource source = engine::CellSource::kEvaluated;
            double s = 0.0;
            {
              const Tracer::Scope span = Tracer::span(
                  tracer, "engine", "BatchEngine::run", j + 1, parent);
              (void)eng.run(spec, &source);
              s = span.elapsed();
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (engine::is_cached(source)) {
              lookup_us.push_back(s * 1e6);
            } else if (spec.kind == engine::CellKind::kSrGrid) {
              eval_grid_ms.push_back(s * 1e3);
            } else {
              eval_analytic_ms.push_back(s * 1e3);
            }
          }
        },
        sweep_opts);
    wait_ms.push_back(latency_ms[j] - job_span.elapsed() * 1e3);
  }
  const swapgame::sweep::ThreadPool::Stats ps = pool.stats();
  out.metric("engine.lookup_us_p50", median(lookup_us), "us");
  out.metric("engine.evaluate_ms_p50.sr_grid", median(eval_grid_ms), "ms");
  out.metric("engine.evaluate_ms_p50.analytic_sr", median(eval_analytic_ms),
             "ms");
  out.metric("service.wait_ms_p50", median(wait_ms), "ms");
  out.metric("sweep.pool_tasks", static_cast<double>(ps.executed), "count");
  out.metric("sweep.max_queue_depth", static_cast<double>(ps.max_queue_depth),
             "count");
}

/// Game solves on the workload's grids, through the warm-chained sweepers,
/// for every fourth fresh job.
void model_probe(const std::vector<Job>& jobs, Tracer* tracer, Outcome& out) {
  std::vector<double> solve_us;
  std::size_t fresh = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].resubmit_of >= 0 || fresh++ % 4 != 0) continue;
    for (const engine::BatchNode& node : jobs[j].nodes) {
      const engine::RunSpec& spec = node.spec;
      const auto timed = [&](auto&& solve) {
        const Tracer::Scope span = Tracer::span(tracer, "model", "Sweeper::at", j + 1);
        solve();
        solve_us.push_back(span.elapsed() * 1e6);
      };
      if (spec.kind == engine::CellKind::kSrGrid) {
        const model::FeasibleBand band = model::cached_feasible_band(spec.mc.params);
        if (!band.viable) continue;
        model::BasicGameSweeper sweeper(spec.mc.params);
        for (int i = 0; i <= spec.grid_count; ++i) {
          const double p = band.lo + (band.hi - band.lo) * i / spec.grid_denom;
          timed([&] { (void)sweeper.at(p)->success_rate(); });
        }
      } else if (spec.mc.collateral > 0.0) {
        model::CollateralGameSweeper sweeper(spec.mc.params);
        timed([&] {
          (void)sweeper.at(spec.mc.p_star, spec.mc.collateral)->success_rate();
        });
      } else {
        model::BasicGameSweeper sweeper(spec.mc.params);
        timed([&] { (void)sweeper.at(spec.mc.p_star)->success_rate(); });
      }
    }
  }
  out.metric("model.games", static_cast<double>(solve_us.size()), "count");
  out.metric("model.game_solve_us_p50", median(solve_us), "us");
}

}  // namespace

void run_sweep_service(const Options& opts, Outcome& out) {
  const std::vector<Job> jobs = make_jobs(opts);

  int index = 0;
  std::vector<Server> started;
  SetupTimer setup = daemon_setup(opts, index, started);
  sample_setup(setup, started);
  Server server = start(opts, index++);
  warm_up(opts, server.clients, out);
  const LoopResult timed =
      closed_loop(jobs, *server.daemon, server.clients, out, nullptr);
  sample_setup(setup, started);
  const double setup_s = setup.seconds();
  const double cells_per_s = static_cast<double>(timed.cells) / timed.wall_s;
  const double rss = peak_rss_mb() + timed.daemon_rss_mb;
  const double p50 = quantile(timed.latency_ms, 0.5);
  const double p99 = quantile(timed.latency_ms, 0.99);
  out.report("setup_s", setup_s, "s");
  out.report("sweep_cells_per_s", cells_per_s, "cells/s");
  out.report("job_latency_p50_ms", p50, "ms");
  out.report("job_latency_p99_ms", p99, "ms");
  out.report("jobs", static_cast<double>(jobs.size()), "count");
  out.report("cache_hit_share",
             static_cast<double>(timed.cached_cells) /
                 static_cast<double>(std::max<std::uint64_t>(timed.cells, 1)),
             "ratio");
  out.report("peak_rss_mb", rss, "MB");

  if (!opts.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", cells_per_s, "1/s");
    out.metric("latency_p50_ms", p50, "ms");
    out.metric("latency_p99_ms", p99, "ms");
    out.metric("peak_rss_mb", rss, "MB");
    return;
  }

  // Traced pass: the same jobs against a fresh daemon, with a span around
  // every submit.  Its wall time over the untraced pass is the overhead.
  Tracer tracer;
  server = start(opts, index++);
  warm_up(opts, server.clients, out);
  const LoopResult traced =
      closed_loop(jobs, *server.daemon, server.clients, out, &tracer);
  const DaemonCounters& c = traced.daemon;
  out.metric("service.jobs", c.jobs, "count");
  out.metric("service.rejected", c.rejected, "count");
  out.metric("service.cells_failed", c.cells_failed, "count");
  out.metric("engine.cells_evaluated", c.cells_run, "count");
  out.metric("engine.cache_hits", c.cache_hits, "count");
  out.metric("engine.cache_hit_ratio",
             c.cells_total > 0 ? c.cache_hits / c.cells_total : 0.0, "ratio");
  out.metric("obs.trace_overhead", traced.wall_s / timed.wall_s, "ratio");
  replay(opts, jobs, traced.latency_ms, &tracer, out);
  model_probe(jobs, &tracer, out);
  trace_summary(opts, tracer);
}

}  // namespace perfbench
