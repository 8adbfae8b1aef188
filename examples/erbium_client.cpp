// The ErbiumDB command-line client: connects to a running erbium_server
// and executes statements remotely over the frame protocol.
//
//   ./build/examples/erbium_client --port 7177 -e "SELECT r_id FROM R;"
//   ./build/examples/erbium_client --port 7177          # interactive REPL
//
// Flags:
//   --port <n>       server port (default 7177)
//   --host <ip>      server address (default 127.0.0.1)
//   --name <s>       session name shown by SHOW SESSIONS (default the
//                    process id as "cli-<pid>")
//   --retries <n>    connect retries, for racing a server still binding
//   --pipeline       send all -e statements as one pipelined batch (one
//                    network round-trip) instead of one at a time
//   --timing         print the server-timing footer after each result
//                    (queue wait + execute, as measured server-side).
//                    Statements are routed through the pipelined path,
//                    whose responses carry the footer.
//   -e <statement>   execute one statement and continue (repeatable);
//                    with no -e an interactive prompt reads from stdin
//
// Exit status: 0 when the connection and every statement succeeded,
// 1 otherwise — scriptable, as the CI smoke test relies on.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "server/client.h"

namespace {

void Render(const erbium::api::StatementOutcome& outcome) {
  using erbium::api::OutputShape;
  switch (outcome.shape) {
    case OutputShape::kMessage:
      std::printf("%s\n", outcome.message.c_str());
      break;
    case OutputShape::kLines:
      for (const erbium::Row& row : outcome.result.rows) {
        std::string_view line = row[0].as_string();
        std::printf("%.*s\n", static_cast<int>(line.size()), line.data());
      }
      break;
    case OutputShape::kTable:
      std::printf("%s", outcome.result.ToTable(25).c_str());
      std::printf("(%zu rows)\n", outcome.result.rows.size());
      break;
  }
}

void RenderTiming(const erbium::server::ServerTiming& timing) {
  if (!timing.present) return;
  std::printf("-- server timing: queue_wait=%lluus execute=%lluus\n",
              static_cast<unsigned long long>(timing.queue_wait_us),
              static_cast<unsigned long long>(timing.execute_us));
}

}  // namespace

int main(int argc, char** argv) {
  erbium::server::Client::Options options;
  options.port = 7177;
  options.name = "cli-" + std::to_string(getpid());
  std::vector<std::string> statements;
  bool pipeline = false;
  bool timing = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      options.port = std::atoi(argv[++i]);
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--name" && i + 1 < argc) {
      options.name = argv[++i];
    } else if (arg == "--retries" && i + 1 < argc) {
      options.connect_retries = std::atoi(argv[++i]);
    } else if (arg == "--pipeline") {
      pipeline = true;
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "-e" && i + 1 < argc) {
      statements.push_back(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }

  auto client = erbium::server::Client::Connect(options);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }

  bool all_ok = true;
  auto run = [&](const std::string& statement) {
    if (timing) {
      // Only seq-tagged responses carry the server-timing footer, so a
      // timed statement travels as a batch of one.
      auto batch = (*client)->ExecuteBatch({statement});
      if (!batch.ok()) {
        std::printf("%s\n", batch.status().ToString().c_str());
        all_ok = false;
        return;
      }
      const auto& item = (*batch)[0];
      if (!item.status.ok()) {
        std::printf("%s\n", item.status.ToString().c_str());
        all_ok = false;
        return;
      }
      Render(item.outcome);
      RenderTiming(item.timing);
      return;
    }
    auto outcome = (*client)->Execute(statement);
    if (!outcome.ok()) {
      std::printf("%s\n", outcome.status().ToString().c_str());
      all_ok = false;
      return;
    }
    Render(*outcome);
  };

  if (!statements.empty()) {
    if (pipeline) {
      // All statements ship in one burst; responses come back tagged and
      // in order. A failed statement reports in place without stopping
      // the rest of the batch.
      auto batch = (*client)->ExecuteBatch(statements);
      if (!batch.ok()) {
        std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
        return 1;
      }
      for (const auto& item : *batch) {
        if (!item.status.ok()) {
          std::printf("%s\n", item.status.ToString().c_str());
          all_ok = false;
          continue;
        }
        Render(item.outcome);
        if (timing) RenderTiming(item.timing);
      }
      return all_ok ? 0 : 1;
    }
    for (const std::string& statement : statements) run(statement);
    return all_ok ? 0 : 1;
  }

  // Interactive: statements end with ';', like the local shell.
  std::printf("connected to %s:%d as '%s' (session %llu) — %s\n",
              options.host.c_str(), options.port, options.name.c_str(),
              static_cast<unsigned long long>((*client)->session_id()),
              (*client)->server_banner().c_str());
  std::string buffer;
  std::string line;
  std::printf("erbium> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (line == "\\quit" || line == "\\q") break;
    buffer += line;
    buffer += "\n";
    size_t semi = buffer.find(';');
    while (semi != std::string::npos) {
      std::string statement = buffer.substr(0, semi);
      buffer.erase(0, semi + 1);
      size_t begin = statement.find_first_not_of(" \t\r\n");
      if (begin != std::string::npos) run(statement.substr(begin));
      semi = buffer.find(';');
    }
    std::printf("erbium> ");
    std::fflush(stdout);
  }
  return all_ok ? 0 : 1;
}
