#include "harness/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <tuple>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include "platform/park.hpp"
#include "platform/time.hpp"

namespace oll {

namespace {

// Prometheus label values: escape backslash, double-quote and newline.
std::string escape_label(const char* s) {
  std::string out;
  for (const char* p = s; p != nullptr && *p != '\0'; ++p) {
    switch (*p) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += *p;
    }
  }
  return out;
}

// JSON string escaping (names are our own literals, but be safe).
std::string escape_json(const char* s) {
  std::string out;
  for (const char* p = s; p != nullptr && *p != '\0'; ++p) {
    switch (*p) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(*p) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", *p);
          out += buf;
        } else {
          out += *p;
        }
    }
  }
  return out;
}

std::string site_label(const LockSiteSample& s) {
  std::ostringstream os;
  os << (s.file != nullptr ? s.file : "?") << ":" << s.line;
  return os.str();
}

}  // namespace

TelemetryExporter::TelemetryExporter(TelemetryOptions opts)
    : opts_(std::move(opts)) {}

TelemetryExporter::~TelemetryExporter() { stop(); }

void TelemetryExporter::start() {
  if (started_) return;
  started_ = true;
  if (opts_.census) registry_census_enable();
  registry_set_coarse_now(now_ns());
  last_tick_ns_ = now_ns();
  if (opts_.http_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ >= 0) {
      int one = 1;
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(opts_.http_port));
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof addr) == 0 &&
          ::listen(listen_fd_, 16) == 0) {
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0) {
          bound_port_ = ntohs(bound.sin_port);
        }
        http_thread_ = std::thread([this] { http_loop(); });
      } else {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }
  }
  thread_ = std::thread([this] { run(); });
}

void TelemetryExporter::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    // Unblock the accept loop, but don't close yet: the listener thread
    // still reads listen_fd_, and once closed the fd number could be
    // recycled by an unrelated open and a late accept() would act on the
    // wrong descriptor.  Close only after the join.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (http_thread_.joinable()) http_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (opts_.census) registry_census_disable();
}

void TelemetryExporter::run() {
  // Sim-mode bench workers run SCHED_FIFO (driver.cpp) and spin, which can
  // starve a normal-priority thread for entire cells and leave only the
  // final flush with real samples.  The exporter sleeps virtually always,
  // so outranking them costs the workers nothing; fall back silently where
  // realtime scheduling is not permitted.
  sched_param prio{};
  prio.sched_priority = 2;
  (void)pthread_setschedparam(pthread_self(), SCHED_RR, &prio);
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    const bool stopping = cv_.wait_for(
        lk, std::chrono::milliseconds(opts_.interval_ms),
        [this] { return stop_; });
    // One tick per wakeup; on stop, take a final tick so short runs still
    // export at least one complete snapshot.
    lk.unlock();
    emit(collect(now_ns()));
    lk.lock();
    if (stopping || stop_) return;
  }
}

TelemetryTick TelemetryExporter::collect(std::uint64_t now) {
  std::lock_guard<std::mutex> g(collect_mu_);
  registry_set_coarse_now(now);
  TelemetryTick t;
  t.tick = tick_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  t.now_ns = now;
  t.interval_ns = now > last_tick_ns_ ? now - last_tick_ns_ : 0;
  last_tick_ns_ = now;

  const auto samples = registry_sample(now, /*attribute_sites=*/true);
  t.locks.reserve(samples.size());
  std::vector<Baseline> next_baselines;
  next_baselines.reserve(samples.size());
  std::size_t cursor = 0;  // baselines_ and samples are both sorted by id
  for (const auto& s : samples) {
    LockTelemetry lt;
    lt.id = s.id;
    lt.name = s.name;
    lt.kind = s.kind;
    lt.site = s.site;
    lt.total = s.stats;
    lt.delta = s.stats;
    while (cursor < baselines_.size() && baselines_[cursor].id < s.id) {
      ++cursor;  // lock deregistered since last tick: drop its baseline
    }
    if (cursor < baselines_.size() && baselines_[cursor].id == s.id) {
      lt.delta -= baselines_[cursor].stats;
    }
    lt.census = s.census;
    lt.has_census = s.has_census;
    next_baselines.push_back(Baseline{s.id, s.stats});
    t.locks.push_back(std::move(lt));
  }
  baselines_ = std::move(next_baselines);
  // Deregistered locks fold their final counters into the registry's
  // graveyard at destruction; export the aggregate alongside live rows.
  t.retired = registry_graveyard();

  t.top.resize(t.locks.size());
  for (std::size_t i = 0; i < t.top.size(); ++i) t.top[i] = i;
  std::stable_sort(t.top.begin(), t.top.end(),
                   [&](std::size_t a, std::size_t b) {
                     return t.locks[a].contention_score() >
                            t.locks[b].contention_score();
                   });
  if (t.top.size() > opts_.top_k) t.top.resize(opts_.top_k);

  t.sites = lock_site_table();
  return t;
}

std::string TelemetryExporter::render_prometheus(const TelemetryTick& t) {
  std::ostringstream os;
  const double dt = static_cast<double>(t.interval_ns) * 1e-9;

  os << "# HELP oll_registry_live_locks Locks currently registered.\n"
     << "# TYPE oll_registry_live_locks gauge\n"
     << "oll_registry_live_locks " << t.locks.size() << "\n";
  os << "# HELP oll_telemetry_ticks_total Exporter collection ticks.\n"
     << "# TYPE oll_telemetry_ticks_total counter\n"
     << "oll_telemetry_ticks_total " << t.tick << "\n";
  // Process-wide parking substrate gauge (platform/park.hpp): threads
  // asleep right now, across every lock.
  os << "# HELP oll_parked_threads Threads currently parked in the "
        "spin-then-park substrate.\n"
     << "# TYPE oll_parked_threads gauge\n"
     << "oll_parked_threads " << parked_thread_count() << "\n";
  {
    const ParkStats ps = park_stats();
    os << "# HELP oll_park_events_total Parking substrate events by type.\n"
       << "# TYPE oll_park_events_total counter\n"
       << "oll_park_events_total{event=\"park\"} " << ps.parks << "\n"
       << "oll_park_events_total{event=\"unpark\"} " << ps.unparks << "\n"
       << "oll_park_events_total{event=\"spurious\"} " << ps.spurious_wakes
       << "\n"
       << "oll_park_events_total{event=\"rearm_recovery\"} "
       << ps.rearm_recoveries << "\n";
  }

  auto counter = [&os](const char* metric, const char* help) {
    os << "# HELP " << metric << " " << help << "\n"
       << "# TYPE " << metric << " counter\n";
  };
  auto gauge = [&os](const char* metric, const char* help) {
    os << "# HELP " << metric << " " << help << "\n"
       << "# TYPE " << metric << " gauge\n";
  };
  auto labels = [](const LockTelemetry& l) {
    std::ostringstream ls;
    ls << "{lock=\"" << escape_label(l.name) << "\",kind=\""
       << escape_label(l.kind) << "\",id=\"" << l.id << "\"}";
    return ls.str();
  };

  struct CounterRow {
    const char* metric;
    const char* help;
    std::uint64_t (*get)(const LockStatsSnapshot&);
  };
  static const CounterRow kCounters[] = {
      {"oll_lock_reads_total", "Shared acquisitions (all paths).",
       [](const LockStatsSnapshot& s) { return s.reads(); }},
      {"oll_lock_writes_total", "Exclusive acquisitions (all paths).",
       [](const LockStatsSnapshot& s) { return s.writes(); }},
      {"oll_lock_read_queued_total", "Readers that had to queue.",
       [](const LockStatsSnapshot& s) { return s.read_queued; }},
      {"oll_lock_write_queued_total", "Writers that had to queue.",
       [](const LockStatsSnapshot& s) { return s.write_queued; }},
      {"oll_lock_read_bias_total", "BRAVO bias fast-path reads.",
       [](const LockStatsSnapshot& s) { return s.read_bias; }},
      {"oll_lock_bias_revoke_total", "BRAVO bias revocations.",
       [](const LockStatsSnapshot& s) { return s.bias_revoke; }},
      {"oll_lock_timeouts_total", "Timed acquisitions that timed out.",
       [](const LockStatsSnapshot& s) {
         return s.read_timeouts + s.write_timeouts;
       }},
      {"oll_lock_opt_reads_total", "Validated optimistic reads.",
       [](const LockStatsSnapshot& s) { return s.opt_reads; }},
      {"oll_lock_opt_validation_failures_total",
       "Optimistic reads invalidated by writers.",
       [](const LockStatsSnapshot& s) { return s.opt_validation_failures; }},
      {"oll_lock_opt_fallbacks_total",
       "Optimistic retry loops that fell back to the shared path.",
       [](const LockStatsSnapshot& s) { return s.opt_fallbacks; }},
  };
  for (const auto& row : kCounters) {
    counter(row.metric, row.help);
    for (const auto& l : t.locks) {
      os << row.metric << labels(l) << " " << row.get(l.total) << "\n";
    }
    // Deregistered locks keep their counters, aggregated by (name, kind):
    // Prometheus counters must not vanish, and the end-of-run exposition
    // should account for per-cell bench locks that have been destroyed.
    for (const auto& r : t.retired) {
      os << row.metric << "{lock=\"" << escape_label(r.name.c_str())
         << "\",kind=\"" << escape_label(r.kind.c_str())
         << "\",id=\"retired\"} " << row.get(r.stats) << "\n";
    }
  }

  gauge("oll_lock_acquire_rate", "Acquisitions/s over the last interval.");
  for (const auto& l : t.locks) {
    const double rate =
        dt > 0.0
            ? static_cast<double>(l.delta.reads() + l.delta.writes()) / dt
            : 0.0;
    os << "oll_lock_acquire_rate" << labels(l) << " " << rate << "\n";
  }

  gauge("oll_lock_queue_depth", "Threads currently waiting (census).");
  gauge("oll_lock_waiting_writers", "Writers currently waiting (census).");
  gauge("oll_lock_write_held", "1 when a writer holds the lock (census).");
  gauge("oll_lock_longest_wait_seconds",
        "Age of the oldest current waiter (coarse-clock resolution).");
  gauge("oll_lock_holder_tid",
        "Dense thread index of the current write holder, -1 if none.");
  for (const auto& l : t.locks) {
    if (!l.has_census) continue;
    const std::string ls = labels(l);
    os << "oll_lock_queue_depth" << ls << " " << l.census.queue_depth()
       << "\n";
    os << "oll_lock_waiting_writers" << ls << " " << l.census.waiting_writers
       << "\n";
    os << "oll_lock_write_held" << ls << " " << (l.census.write_held ? 1 : 0)
       << "\n";
    os << "oll_lock_longest_wait_seconds" << ls << " "
       << static_cast<double>(l.census.longest_wait_ns) * 1e-9 << "\n";
    os << "oll_lock_holder_tid" << ls << " "
       << (l.census.writer_tid == kNoCensusTid
               ? -1
               : static_cast<long>(l.census.writer_tid))
       << "\n";
  }

  counter("oll_site_wait_samples_total",
          "Waiters observed at this acquire site at telemetry ticks.");
  counter("oll_site_stalls_total",
          "Acquisitions from this site that spanned a telemetry tick.");
  for (const auto& s : t.sites) {
    const std::string ls =
        "{site=\"" + escape_label(site_label(s).c_str()) + "\"}";
    os << "oll_site_wait_samples_total" << ls << " " << s.wait_samples
       << "\n";
    os << "oll_site_stalls_total" << ls << " " << s.stalls << "\n";
  }
  return os.str();
}

std::string TelemetryExporter::render_jsonl(const TelemetryTick& t) {
  std::ostringstream os;
  os << "{\"tick\":" << t.tick << ",\"ts_ns\":" << t.now_ns
     << ",\"interval_ns\":" << t.interval_ns << ",\"locks\":[";
  for (std::size_t i = 0; i < t.locks.size(); ++i) {
    const auto& l = t.locks[i];
    if (i != 0) os << ",";
    os << "{\"id\":" << l.id << ",\"name\":\"" << escape_json(l.name)
       << "\",\"kind\":\"" << escape_json(l.kind) << "\"";
    if (l.site.known()) {
      os << ",\"site\":\"" << escape_json(l.site.file) << ":" << l.site.line
         << "\"";
    }
    os << ",\"reads\":" << l.total.reads()
       << ",\"writes\":" << l.total.writes()
       << ",\"delta_reads\":" << l.delta.reads()
       << ",\"delta_writes\":" << l.delta.writes()
       << ",\"delta_read_queued\":" << l.delta.read_queued
       << ",\"delta_write_queued\":" << l.delta.write_queued
       << ",\"delta_bias_revoke\":" << l.delta.bias_revoke
       << ",\"delta_opt_reads\":" << l.delta.opt_reads
       << ",\"delta_opt_fallbacks\":" << l.delta.opt_fallbacks;
    if (l.has_census) {
      os << ",\"queue_depth\":" << l.census.queue_depth()
         << ",\"waiting_writers\":" << l.census.waiting_writers
         << ",\"write_held\":" << (l.census.write_held ? "true" : "false")
         << ",\"longest_wait_ns\":" << l.census.longest_wait_ns;
      if (l.census.writer_tid != kNoCensusTid) {
        os << ",\"holder_tid\":" << l.census.writer_tid;
      }
    }
    os << "}";
  }
  os << "],\"top\":[";
  for (std::size_t i = 0; i < t.top.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << escape_json(t.locks[t.top[i]].name) << "\"";
  }
  os << "],\"retired\":[";
  for (std::size_t i = 0; i < t.retired.size(); ++i) {
    const auto& r = t.retired[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << escape_json(r.name.c_str()) << "\",\"kind\":\""
       << escape_json(r.kind.c_str()) << "\",\"reads\":" << r.stats.reads()
       << ",\"writes\":" << r.stats.writes() << "}";
  }
  os << "],\"sites\":[";
  bool first = true;
  for (const auto& s : t.sites) {
    if (s.wait_samples == 0 && s.stalls == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"site\":\"" << escape_json(site_label(s).c_str())
       << "\",\"wait_samples\":" << s.wait_samples
       << ",\"stalls\":" << s.stalls << "}";
  }
  os << "]}";
  return os.str();
}

void TelemetryExporter::emit(const TelemetryTick& t) {
  const std::string prom = render_prometheus(t);
  {
    std::lock_guard<std::mutex> g(prom_mu_);
    latest_prom_ = prom;
  }
  if (!opts_.prom_path.empty()) {
    // tmp + rename so a concurrent scrape of the file never sees a torn
    // exposition.
    const std::string tmp = opts_.prom_path + ".tmp";
    {
      std::ofstream f(tmp, std::ios::trunc);
      f << prom;
    }
    std::rename(tmp.c_str(), opts_.prom_path.c_str());
  }
  if (!opts_.jsonl_path.empty()) {
    std::ofstream f(opts_.jsonl_path, std::ios::app);
    f << render_jsonl(t) << "\n";
  }
}

void TelemetryExporter::http_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // listener shut down (stop()) or hard error
    {
      std::lock_guard<std::mutex> g(mu_);
      if (stop_) {
        ::close(fd);
        return;
      }
    }
    char buf[1024];
    // Drain whatever request line arrived; we serve the same document for
    // any path, which is all a Prometheus scrape needs.
    (void)::recv(fd, buf, sizeof buf, 0);
    std::string body;
    {
      std::lock_guard<std::mutex> g(prom_mu_);
      body = latest_prom_;
    }
    std::ostringstream os;
    os << "HTTP/1.0 200 OK\r\n"
       << "Content-Type: text/plain; version=0.0.4\r\n"
       << "Content-Length: " << body.size() << "\r\n\r\n"
       << body;
    const std::string resp = os.str();
    std::size_t off = 0;
    while (off < resp.size()) {
      const ssize_t n = ::send(fd, resp.data() + off, resp.size() - off, 0);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }
}

std::unique_ptr<TelemetryExporter> make_telemetry_exporter(
    const TelemetryFlagValues& v) {
  if (!v.any()) return nullptr;
  TelemetryOptions o;
  o.interval_ms = v.interval_ms == 0 ? 1 : v.interval_ms;
  if (!v.metrics_out.empty()) {
    o.prom_path = v.metrics_out;
    o.jsonl_path = v.metrics_out + ".jsonl";
    // A fresh run starts a fresh series.
    std::remove(o.jsonl_path.c_str());
  }
  o.http_port = v.metrics_port;
  auto exp = std::make_unique<TelemetryExporter>(std::move(o));
  exp->start();
  return exp;
}

}  // namespace oll
