// emogi_serve: the traversal-as-a-service wire server. Loads the
// selected datasets as resident shards of one runtime::QueryService
// (each its own simulated device) and serves the wire protocol
// (src/net/) to live emogi_client peers: each connection declares a
// tenant + weight, and a runtime::Dispatcher (deficit round robin,
// deadline shedding, same-class waves of --max-lanes) feeds the engine.
// Simulated serving of a generated trace is `emogi_bench run
// serving_latency`.
//
// Usage:
//   emogi_serve --listen <path|host:port> [--scale N] [--data-dir D]
//               [--cache-dir D] [--filter sym=A,B]
//               [--max-lanes K] [--queue-bound N] [--max-conns N]
//               [--drain-timeout-ms MS]
//
// The socket is bound only after every shard has loaded, and a Unix
// socket file appears only once it accepts, so the socket file (or
// port) appearing is the readiness signal scripts wait on. SIGINT/SIGTERM
// trigger a graceful drain: stop accepting, answer everything already
// admitted, flush, then exit.
//
// Exit codes: 0 clean drain (every buffered response delivered); 1
// forced drain (a peer would not take its final responses within
// --drain-timeout-ms); 2 usage error; 3 bind/listen failure.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/format.h"
#include "bench/options.h"
#include "bench/workload.h"
#include "cli_flags.h"
#include "core/config.h"
#include "net/listener.h"
#include "runtime/query_service.h"
#include "serve/server.h"

namespace {

using emogi::bench::FormatDouble;
using emogi::tools::ParseFlag;

constexpr char kTool[] = "emogi_serve";

struct ServeFlags {
  std::string listen;
  int max_lanes = emogi::core::kMaxBatchLanes;
  int queue_bound = 64;
  int max_conns = 64;
  int drain_timeout_ms = 5000;
};

// The SIGINT/SIGTERM drain path: the handler writes one 'q' byte to the
// listener's wake pipe (async-signal-safe -- no locks, no allocation)
// and the event loop begins its graceful drain. The pipe is
// nonblocking, so the handler can never block in write().
volatile int g_shutdown_fd = -1;

void HandleShutdownSignal(int) {
  const int fd = g_shutdown_fd;
  if (fd >= 0) {
    const char byte = 'q';
    [[maybe_unused]] ssize_t n = write(fd, &byte, 1);
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen <path|host:port> [--scale N] "
               "[--data-dir D] [--cache-dir D]\n"
               "          [--filter sym=A,B] [--max-lanes K] "
               "[--queue-bound N] [--max-conns N]\n"
               "          [--drain-timeout-ms MS]\n"
               "exit codes: 0 clean, 1 forced drain, 2 usage, "
               "3 bind failure\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  emogi::bench::Options options = emogi::bench::Options::FromEnv();
  ServeFlags flags;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage(argv[0]);
    arg = arg.substr(2);
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      if (arg == "help" || i + 1 >= argc) return Usage(argv[0]);
      value = argv[++i];
    }
    if (arg == "listen") {
      flags.listen = value;
    } else if (arg == "max-lanes") {
      if (!ParseFlag(kTool, arg, value, 1, &flags.max_lanes)) return 2;
    } else if (arg == "queue-bound") {
      if (!ParseFlag(kTool, arg, value, 1, &flags.queue_bound)) return 2;
    } else if (arg == "max-conns") {
      if (!ParseFlag(kTool, arg, value, 1, &flags.max_conns)) return 2;
    } else if (arg == "drain-timeout-ms") {
      if (!ParseFlag(kTool, arg, value, 1, &flags.drain_timeout_ms)) {
        return 2;
      }
    } else if (arg == "threads" || arg == "sources") {
      // Nothing in the wire server reads them; accepting them would
      // silently ignore the caller's setting.
      std::fprintf(stderr, "%s: --%s has no effect here\n", kTool,
                   arg.c_str());
      return Usage(argv[0]);
    } else if (!options.Set(arg, value)) {
      return Usage(argv[0]);
    }
  }
  if (flags.listen.empty()) {
    std::fprintf(stderr, "emogi_serve: --listen is required\n");
    return Usage(argv[0]);
  }

  const std::vector<std::string> symbols =
      emogi::bench::SelectedSymbols(options);
  if (symbols.empty()) {
    std::fprintf(stderr, "emogi_serve: --filter selected no datasets\n");
    return 2;
  }

  // Wire waves run uncharged and no response field depends on the
  // access mode, so the shards take the paper's EMOGI configuration.
  emogi::core::EmogiConfig config = emogi::core::EmogiConfig::ForMode(
      emogi::core::AccessMode::kMergedAligned);
  config.device.scale_factor = options.scale;

  emogi::runtime::QueryService service(flags.max_lanes);
  for (const std::string& symbol : symbols) {
    service.AddGraph(emogi::bench::LoadDataset(symbol, options), config,
                     symbol);
  }

  emogi::net::ListenerOptions listener_options;
  listener_options.address = flags.listen;
  listener_options.max_conns = flags.max_conns;
  listener_options.tenant_queue_bound =
      static_cast<std::size_t>(flags.queue_bound);
  listener_options.drain_timeout_ms = flags.drain_timeout_ms;
  emogi::net::Listener listener(&service, listener_options);
  std::string error;
  if (!listener.Open(&error)) {
    std::fprintf(stderr, "emogi_serve: --listen %s: %s\n",
                 flags.listen.c_str(), error.c_str());
    return 3;
  }
  g_shutdown_fd = listener.shutdown_write_fd();
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  // Bound only after every shard loaded: the address appearing is the
  // readiness signal scripts wait on.
  std::printf("emogi_serve: %d shard(s) resident, serving on %s (max %d "
              "conns, per-tenant queue bound %d, %d lanes)\n",
              service.num_graphs(),
              listener.bound_address().ToString().c_str(), flags.max_conns,
              flags.queue_bound, service.max_lanes());
  std::fflush(stdout);

  const int result = listener.Run();

  const emogi::net::ListenerStats stats = listener.Stats();
  std::printf("\ndrained: %llu conn(s) accepted, %llu refused, "
              "%llu frame(s) in, %llu response(s) out, "
              "%llu protocol error(s)\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.connections_refused),
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.responses_sent),
              static_cast<unsigned long long>(stats.protocol_errors));
  if (!stats.tenants.empty()) {
    std::printf("%-16s %6s %9s %9s %9s %9s %9s %9s %10s %10s\n", "tenant",
                "weight", "arrivals", "served", "overload", "invalid",
                "deadline", "disconn", "p50 ms", "p99 ms");
    for (const emogi::net::TenantStats& tenant : stats.tenants) {
      std::printf(
          "%-16s %6u %9llu %9llu %9llu %9llu %9llu %9llu %10s %10s\n",
          tenant.name.c_str(), tenant.weight,
          static_cast<unsigned long long>(tenant.arrivals),
          static_cast<unsigned long long>(tenant.served),
          static_cast<unsigned long long>(tenant.rejected_overload),
          static_cast<unsigned long long>(tenant.rejected_invalid),
          static_cast<unsigned long long>(tenant.dropped_deadline),
          static_cast<unsigned long long>(tenant.dropped_disconnect),
          FormatDouble(
              emogi::serve::PercentileNs(tenant.latencies_ns, 50) / 1e6)
              .c_str(),
          FormatDouble(
              emogi::serve::PercentileNs(tenant.latencies_ns, 99) / 1e6)
              .c_str());
    }
  }
  return result;
}
