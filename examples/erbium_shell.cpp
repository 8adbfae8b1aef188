// Interactive ErbiumDB shell: type DDL to build an E/R schema, ERQL to
// query, and backslash commands to inspect the system. A tiny REPL over
// the full stack (DDL layer -> mapping -> translation -> execution),
// handy for exploring how mappings change plans.
//
// Statement dispatch lives in api::StatementRunner — the same path the
// network server (src/server) drives — so the shell and the server
// cannot drift apart; only the backslash inspection commands and the
// REPL loop are shell-specific.
//
//   ./build/examples/erbium_shell            # empty schema, M1 mapping
//   ./build/examples/erbium_shell --figure4  # preloaded paper schema+data
//
// Commands:
//   CREATE ENTITY ... ;            extend the schema (rebuilds the DB)
//   SELECT ... ;                   run an ERQL query
//   EXPLAIN [ANALYZE] SELECT ...;  show the annotated physical plan
//   SHOW METRICS [LIKE '<glob>'];  dump the process metrics registry
//   SHOW QUERIES [SLOW] [LIMIT n]; the query log / slow-query ring
//   SHOW SESSIONS ;                live sessions (shell + server clients)
//   SHOW WORKLOAD [LIMIT n];       captured E/R access profile + hot shapes
//   ADVISE [LIMIT n];              rank candidate mappings by live traffic
//   EXPORT WORKLOAD INTO '<file>'; snapshot the workload profile as JSON
//   LOAD WORKLOAD FROM '<file>';   replace the profile from a snapshot
//   TRACE [INTO '<file>'] SELECT ...;  run + emit a Chrome trace JSON
//   ATTACH DATABASE '<dir>' ;      bind to an on-disk directory (runs
//                                  recovery; subsequent writes are WAL'd)
//   CHECKPOINT ;                   snapshot + truncate the WAL
//   INSERT <Entity> (a = 1, ...);  insert one entity instance
//   REMAP <preset> ;               switch mapping preset + migrate
//   \metrics           Prometheus text exposition of the registry
//   \tables            list physical tables of the current mapping
//   \mapping           show the active mapping spec (JSON)
//   \mappings          list selectable mapping presets
//   \remap <name>      switch mapping preset (m1..m6, m6pg) + migrate
//   \plan SELECT ...   show the physical plan without running it
//   \schema            dump the E/R schema
//   \graph             dump the E/R graph as graphviz
//   \cover             show the current mapping as a cover of the graph
//   \quit

#include <cstdio>
#include <iostream>
#include <string>

#include "api/statement_runner.h"
#include "er/er_graph.h"
#include "erql/query_engine.h"
#include "obs/export.h"
#include "obs/session.h"

namespace {

using erbium::ERGraph;
using erbium::MappingSpec;
using erbium::Status;
using erbium::api::OutputShape;
using erbium::api::StatementOutcome;
using erbium::api::StatementRunner;

struct Shell {
  std::unique_ptr<StatementRunner> runner;

  void HandleCommand(const std::string& line) {
    auto starts = [&](const char* prefix) {
      return line.rfind(prefix, 0) == 0;
    };
    if (starts("\\tables")) {
      for (const auto& table : runner->db()->mapping().tables()) {
        std::printf("  %s\n", table.ToString().c_str());
      }
      for (const auto& pair : runner->db()->mapping().pairs()) {
        std::printf("  [pair] %s (left of %s)\n", pair.name.c_str(),
                    pair.relationship.c_str());
      }
      return;
    }
    if (starts("\\metrics")) {
      std::printf("%s", erbium::obs::ExportPrometheusText().c_str());
      return;
    }
    if (starts("\\mappings")) {
      std::printf("  m1 m2 m3 m4 m5 m6 m6pg   (\\remap <name>)\n");
      return;
    }
    if (starts("\\mapping")) {
      std::printf("%s\n", runner->db()->mapping().spec().ToJson().c_str());
      return;
    }
    if (starts("\\remap ")) {
      HandleStatement("REMAP " + line.substr(7));
      return;
    }
    if (starts("\\plan ")) {
      auto compiled =
          erbium::erql::QueryEngine::Compile(runner->db(), line.substr(6));
      if (!compiled.ok()) {
        std::printf("%s\n", compiled.status().ToString().c_str());
        return;
      }
      std::printf("%s", erbium::PrintPlan(*compiled->plan).c_str());
      return;
    }
    if (starts("\\schema")) {
      std::printf("%s", runner->SchemaView()->ToString().c_str());
      return;
    }
    if (starts("\\graph")) {
      auto graph = ERGraph::Build(*runner->SchemaView());
      if (graph.ok()) std::printf("%s", graph->ToDot().c_str());
      return;
    }
    if (starts("\\cover")) {
      auto graph = ERGraph::Build(*runner->SchemaView());
      if (!graph.ok()) return;
      auto cover = runner->db()->mapping().Cover(*graph);
      if (!cover.ok()) {
        std::printf("%s\n", cover.status().ToString().c_str());
        return;
      }
      for (size_t i = 0; i < cover->size(); ++i) {
        std::printf("  structure %2zu: {", i);
        bool first = true;
        for (int node : (*cover)[i]) {
          std::printf("%s%s", first ? "" : ", ",
                      graph->nodes()[node].name.c_str());
          first = false;
        }
        std::printf("}\n");
      }
      return;
    }
    std::printf("unknown command: %s\n", line.c_str());
  }

  void HandleStatement(const std::string& statement) {
    auto outcome = runner->Execute(statement);
    if (!outcome.ok()) {
      std::printf("%s\n", outcome.status().ToString().c_str());
      return;
    }
    switch (outcome->shape) {
      case OutputShape::kMessage:
        std::printf("%s\n", outcome->message.c_str());
        break;
      case OutputShape::kLines:
        for (const erbium::Row& row : outcome->result.rows) {
          std::string_view line = row[0].as_string();
          std::printf("%.*s\n", static_cast<int>(line.size()), line.data());
        }
        break;
      case OutputShape::kTable:
        std::printf("%s", outcome->result.ToTable(25).c_str());
        std::printf("(%zu rows)\n", outcome->result.rows.size());
        break;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  StatementRunner::Options options;
  options.figure4 = argc > 1 && std::string(argv[1]) == "--figure4";
  options.figure4_num_r = 1000;
  options.figure4_num_s = 300;
  auto runner = StatementRunner::Create(options);
  if (!runner.ok()) {
    std::fprintf(stderr, "%s\n", runner.status().ToString().c_str());
    return 1;
  }
  shell.runner = std::move(runner).value();
  if (options.figure4) {
    std::printf("Loaded the paper's Figure 4 schema with sample data.\n");
  }

  // Register the shell itself as a session so SHOW SESSIONS and the
  // query-log session column work locally exactly as they do against a
  // server.
  erbium::obs::SessionInfo info;
  info.name = "shell";
  info.peer = "local";
  info.state = "idle";
  uint64_t session_id = erbium::obs::SessionRegistry::Global().Register(info);
  erbium::obs::ScopedSessionTag tag("shell");

  std::printf("ErbiumDB shell — \\tables \\mapping \\remap \\plan \\metrics "
              "\\schema \\graph \\cover \\quit; SHOW METRICS / SHOW QUERIES "
              "[SLOW] / SHOW SESSIONS / SHOW WORKLOAD / ADVISE / TRACE "
              "SELECT ...; EXPORT|LOAD WORKLOAD / ATTACH DATABASE '<dir>' / "
              "CHECKPOINT / INSERT / REMAP ...; end statements "
              "with ';'\n");
  std::string buffer;
  std::string line;
  std::printf("erbium> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line[0] == '\\') {
      if (line.rfind("\\quit", 0) == 0 || line.rfind("\\q", 0) == 0) break;
      shell.HandleCommand(line);
      std::printf("erbium> ");
      std::fflush(stdout);
      continue;
    }
    buffer += line;
    buffer += "\n";
    size_t semi = buffer.find(';');
    while (semi != std::string::npos) {
      std::string statement = buffer.substr(0, semi);
      buffer.erase(0, semi + 1);
      // Trim.
      size_t begin = statement.find_first_not_of(" \t\r\n");
      if (begin != std::string::npos) {
        statement = statement.substr(begin);
        erbium::obs::SessionRegistry::Global().Update(
            session_id, [&statement](erbium::obs::SessionInfo* s) {
              s->state = "executing";
              s->last_statement = statement;
            });
        shell.HandleStatement(statement);
        erbium::obs::SessionRegistry::Global().Update(
            session_id, [](erbium::obs::SessionInfo* s) {
              s->state = "idle";
              ++s->statements;
            });
      }
      semi = buffer.find(';');
    }
    std::printf("erbium> ");
    std::fflush(stdout);
  }
  erbium::obs::SessionRegistry::Global().Deregister(session_id);
  std::printf("\n");
  return 0;
}
