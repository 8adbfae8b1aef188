// The ErbiumDB network server: listens on a TCP port, speaks the frame
// protocol of src/server/protocol.h, and serves concurrent sessions
// against one shared database (readers overlap; writers serialize).
//
//   ./build/examples/erbium_server --port 7177 --figure4
//   ./build/examples/erbium_server --port 7177 --attach /tmp/erbium-data
//
// SIGINT / SIGTERM shut down gracefully: the listener closes, in-flight
// statements drain, and — when a database directory is attached — a
// final CHECKPOINT collapses the WAL before exit.
//
// Flags:
//   --port <n>             listen port (default 7177; 0 = ephemeral)
//   --host <ip>            listen address (default 127.0.0.1)
//   --figure4              preload the paper's Figure 4 schema + data
//   --attach <dir>         attach a durable database directory
//   --max-connections <n>  admission limit (default 64)
//   --idle-timeout-ms <n>  drop connections idle this long (default 60000)
//   --deadline-ms <n>      per-statement budget (default 30000; 0 = off)
//   --metrics-port <n>     serve HTTP GET /metrics (Prometheus text) and
//                          GET /healthz on this port (0 = ephemeral;
//                          omit the flag to disable the endpoint)

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/server.h"

int main(int argc, char** argv) {
  erbium::server::ServerOptions options;
  options.port = 7177;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_int = [&](int fallback) {
      return i + 1 < argc ? std::atoi(argv[++i]) : fallback;
    };
    if (arg == "--port") {
      options.port = next_int(options.port);
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--figure4") {
      options.runner.figure4 = true;
    } else if (arg == "--attach" && i + 1 < argc) {
      options.runner.attach_dir = argv[++i];
    } else if (arg == "--max-connections") {
      options.max_connections = next_int(options.max_connections);
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms = next_int(options.idle_timeout_ms);
    } else if (arg == "--deadline-ms") {
      options.request_deadline_ms = next_int(options.request_deadline_ms);
    } else if (arg == "--metrics-port") {
      options.metrics_port = next_int(options.metrics_port);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // Route SIGINT/SIGTERM to sigwait below: block them before the server
  // spawns any thread, so every thread inherits the mask and the signal
  // is delivered to the waiting main thread, never to a session thread.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  auto server = erbium::server::Server::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("erbium_server listening on %s:%d%s%s\n", options.host.c_str(),
              (*server)->port(), options.runner.figure4 ? " (figure4)" : "",
              options.runner.attach_dir.empty()
                  ? ""
                  : (" (attached " + options.runner.attach_dir + ")").c_str());
  if ((*server)->metrics_port() >= 0) {
    std::printf("metrics on http://%s:%d/metrics (healthz on /healthz)\n",
                options.host.c_str(), (*server)->metrics_port());
  }
  std::fflush(stdout);

  int sig = 0;
  sigwait(&signals, &sig);
  std::printf("received %s, draining sessions...\n", strsignal(sig));
  std::fflush(stdout);
  erbium::Status st = (*server)->Stop();
  if (!st.ok()) {
    std::fprintf(stderr, "shutdown checkpoint failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("server stopped cleanly\n");
  return 0;
}
