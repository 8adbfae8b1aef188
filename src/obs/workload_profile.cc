#include "obs/workload_profile.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/lexer.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace erbium {
namespace obs {

namespace {

/// Kinds that executed a plan against live data; everything else (SHOW,
/// EXPORT/LOAD WORKLOAD, ADVISE, CHECKPOINT, failed parses) observes the
/// system rather than participating in the workload.
bool IsProfiledKind(const std::string& kind) {
  return kind == "select" || kind == "explain_analyze" || kind == "trace";
}

void AppendField(std::string* out, const char* name, uint64_t value,
                 bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += name;
  *out += "\":";
  *out += std::to_string(value);
}

/// Strict parser for the snapshot JSON written by WorkloadSnapshot::ToJson.
/// Deliberately schema-aware rather than generic: LOAD WORKLOAD should
/// reject anything EXPORT WORKLOAD could not have produced. (tests use
/// tests/mini_json.h; that header is test-only, so the loader carries its
/// own ~100 lines.)
class SnapshotParser {
 public:
  explicit SnapshotParser(const std::string& text) : s_(text) {}

  Status Parse(WorkloadSnapshot* out) {
    SkipWs();
    ERBIUM_RETURN_NOT_OK(Expect('{'));
    uint64_t version = 0;
    ERBIUM_RETURN_NOT_OK(Key("version"));
    ERBIUM_RETURN_NOT_OK(Uint(&version));
    if (version != 1) {
      return Status::InvalidArgument("unsupported workload snapshot version " +
                                     std::to_string(version));
    }
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("statements"));
    ERBIUM_RETURN_NOT_OK(Uint(&out->statements));
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("entities"));
    ERBIUM_RETURN_NOT_OK(ParseMap(&out->entities, [this](EntityAccess* e) {
      return Fields({{"scans", &e->scans},
                     {"probes", &e->probes},
                     {"join_sides", &e->join_sides},
                     {"inserts", &e->inserts},
                     {"deletes", &e->deletes},
                     {"updates", &e->updates}});
    }));
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("relationships"));
    ERBIUM_RETURN_NOT_OK(
        ParseMap(&out->relationships, [this](RelationshipAccess* r) {
          return Fields({{"joins", &r->joins},
                         {"fused_scans", &r->fused_scans},
                         {"inserts", &r->inserts},
                         {"deletes", &r->deletes}});
        }));
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("attributes"));
    ERBIUM_RETURN_NOT_OK(
        ParseMap(&out->attributes, [this](AttributeAccess* a) {
          return Fields({{"predicates", &a->predicates},
                         {"projections", &a->projections}});
        }));
    ERBIUM_RETURN_NOT_OK(Expect(','));
    ERBIUM_RETURN_NOT_OK(Key("shapes"));
    ERBIUM_RETURN_NOT_OK(ParseShapes(&out->shapes));
    ERBIUM_RETURN_NOT_OK(Expect('}'));
    SkipWs();
    if (pos_ != s_.size()) return Error("trailing input");
    return Status::OK();
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("workload snapshot: " + message +
                                   " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status Expect(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      return Error(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  /// "name": — consumes the quoted key and the colon.
  Status Key(const char* name) {
    std::string key;
    ERBIUM_RETURN_NOT_OK(String(&key));
    if (key != name) {
      return Error("expected key \"" + std::string(name) + "\", got \"" + key +
                   "\"");
    }
    return Expect(':');
  }

  Status String(std::string* out) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != '"') return Error("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= s_.size()) return Error("dangling escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'r': *out += '\r'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Error("short \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value += h - '0';
            } else if (h >= 'a' && h <= 'f') {
              value += h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              value += h - 'A' + 10;
            } else {
              return Error("bad \\u escape");
            }
          }
          // JsonEscaped only emits \u for control characters (< 0x20).
          *out += static_cast<char>(value & 0x7f);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status Uint(uint64_t* out) {
    SkipWs();
    size_t start = pos_;
    uint64_t value = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      value = value * 10 + static_cast<uint64_t>(s_[pos_] - '0');
      ++pos_;
    }
    if (pos_ == start) return Error("expected number");
    *out = value;
    return Status::OK();
  }

  /// {"field": n, ...} with the exact field set, in order.
  Status Fields(
      std::initializer_list<std::pair<const char*, uint64_t*>> fields) {
    ERBIUM_RETURN_NOT_OK(Expect('{'));
    bool first = true;
    for (const auto& [name, slot] : fields) {
      if (!first) ERBIUM_RETURN_NOT_OK(Expect(','));
      first = false;
      ERBIUM_RETURN_NOT_OK(Key(name));
      ERBIUM_RETURN_NOT_OK(Uint(slot));
    }
    return Expect('}');
  }

  template <typename T, typename ParseValue>
  Status ParseMap(std::map<std::string, T>* out, ParseValue parse_value) {
    ERBIUM_RETURN_NOT_OK(Expect('{'));
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      std::string name;
      ERBIUM_RETURN_NOT_OK(String(&name));
      ERBIUM_RETURN_NOT_OK(Expect(':'));
      T value;
      ERBIUM_RETURN_NOT_OK(parse_value(&value));
      if (!out->emplace(std::move(name), std::move(value)).second) {
        return Error("duplicate key");
      }
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Expect('}');
    }
  }

  Status ParseShapes(std::vector<WorkloadSnapshot::Shape>* out) {
    ERBIUM_RETURN_NOT_OK(Expect('['));
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      WorkloadSnapshot::Shape shape;
      ERBIUM_RETURN_NOT_OK(Expect('{'));
      ERBIUM_RETURN_NOT_OK(Key("shape"));
      ERBIUM_RETURN_NOT_OK(String(&shape.shape));
      ERBIUM_RETURN_NOT_OK(Expect(','));
      ERBIUM_RETURN_NOT_OK(Key("sample"));
      ERBIUM_RETURN_NOT_OK(String(&shape.sample));
      ERBIUM_RETURN_NOT_OK(Expect(','));
      ERBIUM_RETURN_NOT_OK(Key("kind"));
      ERBIUM_RETURN_NOT_OK(String(&shape.kind));
      ERBIUM_RETURN_NOT_OK(Expect(','));
      ERBIUM_RETURN_NOT_OK(Key("count"));
      ERBIUM_RETURN_NOT_OK(Uint(&shape.count));
      ERBIUM_RETURN_NOT_OK(Expect(','));
      ERBIUM_RETURN_NOT_OK(Key("total_wall_ns"));
      ERBIUM_RETURN_NOT_OK(Uint(&shape.total_wall_ns));
      ERBIUM_RETURN_NOT_OK(Expect('}'));
      out->push_back(std::move(shape));
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Expect(']');
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

std::string NormalizeShape(const std::string& text) {
  Result<std::vector<Token>> tokens = Lexer::Tokenize(text);
  std::string out;
  if (!tokens.ok()) {
    // The parser may still reject this text, but the profiler should not
    // be the component that loses a statement — collapse whitespace and
    // keep it verbatim.
    bool in_space = true;
    for (char c : text) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!in_space) out += ' ';
        in_space = true;
      } else {
        out += c;
        in_space = false;
      }
    }
    while (!out.empty() && (out.back() == ' ' || out.back() == ';')) {
      out.pop_back();
    }
    return out;
  }
  for (const Token& token : *tokens) {
    if (token.kind == TokenKind::kEnd) break;
    std::string piece;
    switch (token.kind) {
      case TokenKind::kIdentifier:
        piece = token.text;
        std::transform(piece.begin(), piece.end(), piece.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        break;
      case TokenKind::kInteger:
      case TokenKind::kFloat:
      case TokenKind::kString:
        piece = "?";
        break;
      case TokenKind::kSymbol:
        piece = token.text;
        break;
      case TokenKind::kEnd:
        break;
    }
    if (!out.empty()) out += ' ';
    out += piece;
  }
  while (!out.empty() &&
         (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

std::string WorkloadSnapshot::ToJson() const {
  std::string out = "{\n";
  out += "  \"version\": 1,\n";
  out += "  \"statements\": " + std::to_string(statements) + ",\n";
  out += "  \"entities\": {";
  bool first_item = true;
  for (const auto& [name, e] : entities) {
    out += first_item ? "\n" : ",\n";
    first_item = false;
    out += "    \"" + JsonEscaped(name) + "\": {";
    bool first = true;
    AppendField(&out, "scans", e.scans, &first);
    AppendField(&out, "probes", e.probes, &first);
    AppendField(&out, "join_sides", e.join_sides, &first);
    AppendField(&out, "inserts", e.inserts, &first);
    AppendField(&out, "deletes", e.deletes, &first);
    AppendField(&out, "updates", e.updates, &first);
    out += "}";
  }
  out += entities.empty() ? "},\n" : "\n  },\n";
  out += "  \"relationships\": {";
  first_item = true;
  for (const auto& [name, r] : relationships) {
    out += first_item ? "\n" : ",\n";
    first_item = false;
    out += "    \"" + JsonEscaped(name) + "\": {";
    bool first = true;
    AppendField(&out, "joins", r.joins, &first);
    AppendField(&out, "fused_scans", r.fused_scans, &first);
    AppendField(&out, "inserts", r.inserts, &first);
    AppendField(&out, "deletes", r.deletes, &first);
    out += "}";
  }
  out += relationships.empty() ? "},\n" : "\n  },\n";
  out += "  \"attributes\": {";
  first_item = true;
  for (const auto& [name, a] : attributes) {
    out += first_item ? "\n" : ",\n";
    first_item = false;
    out += "    \"" + JsonEscaped(name) + "\": {";
    bool first = true;
    AppendField(&out, "predicates", a.predicates, &first);
    AppendField(&out, "projections", a.projections, &first);
    out += "}";
  }
  out += attributes.empty() ? "},\n" : "\n  },\n";
  out += "  \"shapes\": [";
  first_item = true;
  for (const Shape& shape : shapes) {
    out += first_item ? "\n" : ",\n";
    first_item = false;
    out += "    {\"shape\":\"" + JsonEscaped(shape.shape) + "\",\"sample\":\"" +
           JsonEscaped(shape.sample) + "\",\"kind\":\"" +
           JsonEscaped(shape.kind) + "\",\"count\":" +
           std::to_string(shape.count) + ",\"total_wall_ns\":" +
           std::to_string(shape.total_wall_ns) + "}";
  }
  out += shapes.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

WorkloadProfile& WorkloadProfile::Global() {
  static WorkloadProfile* profile = new WorkloadProfile();
  return *profile;
}

WorkloadProfile::WorkloadProfile(size_t shape_capacity)
    : shape_capacity_(shape_capacity == 0 ? 1 : shape_capacity) {}

void WorkloadProfile::RecordStatement(const StatementFootprint* footprint,
                                      const std::string& kind,
                                      const std::string& text,
                                      uint64_t wall_ns) {
  if (!enabled() || !IsProfiledKind(kind)) return;
  // The footprint carries the shape computed at translate time; fall back
  // to normalizing here (outside the lock) for statements recorded
  // without a compiled plan.
  const bool planned = footprint != nullptr && !footprint->shape.empty();
  const std::string normalized = planned ? std::string() : NormalizeShape(text);
  const std::string& shape = planned ? footprint->shape : normalized;
  std::lock_guard<std::mutex> lock(mu_);
  ++statements_;
  if (footprint != nullptr) {
    for (const StatementFootprint::EntityTouch& touch : footprint->entities) {
      EntityAccess& access = entities_[touch.entity];
      switch (touch.path) {
        case EntityPath::kScan:
          ++access.scans;
          break;
        case EntityPath::kProbe:
          ++access.probes;
          break;
        case EntityPath::kJoinSide:
          ++access.join_sides;
          break;
      }
    }
    for (const StatementFootprint::RelationshipTouch& touch :
         footprint->relationships) {
      RelationshipAccess& access = relationships_[touch.relationship];
      ++(touch.fused ? access.fused_scans : access.joins);
    }
    for (const StatementFootprint::AttributeTouch& touch :
         footprint->attributes) {
      AttributeAccess& access =
          attributes_[touch.entity + "." + touch.attribute];
      ++(touch.predicate ? access.predicates : access.projections);
    }
  }
  RecordShapeLocked(shape, kind, text, wall_ns);
}

void WorkloadProfile::RecordShapeLocked(const std::string& shape,
                                        const std::string& kind,
                                        const std::string& sample,
                                        uint64_t wall_ns) {
  if (shape.empty()) return;
  auto it = shapes_.find(shape);
  if (it == shapes_.end()) {
    if (shapes_.size() >= shape_capacity_) {
      // Admission-controlled eviction: a newcomer displaces the lightest
      // resident (least accumulated wall time) only by arriving heavier
      // than it, so the heavy hitters the advisor cares about always
      // survive a stream of one-off light shapes.
      auto lightest = shapes_.begin();
      for (auto cur = shapes_.begin(); cur != shapes_.end(); ++cur) {
        if (cur->second.total_wall_ns < lightest->second.total_wall_ns) {
          lightest = cur;
        }
      }
      if (lightest->second.total_wall_ns >= wall_ns) return;
      shapes_.erase(lightest);
    }
    it = shapes_.emplace(shape, WorkloadSnapshot::Shape{shape, sample, kind})
             .first;
  }
  ++it->second.count;
  it->second.total_wall_ns += wall_ns;
}

void WorkloadProfile::RecordEntityCrud(const std::string& entity,
                                       CrudKind kind) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  EntityAccess& access = entities_[entity];
  switch (kind) {
    case CrudKind::kInsert:
      ++access.inserts;
      break;
    case CrudKind::kDelete:
      ++access.deletes;
      break;
    case CrudKind::kUpdate:
      ++access.updates;
      break;
  }
}

void WorkloadProfile::RecordRelationshipCrud(const std::string& relationship,
                                             CrudKind kind) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  RelationshipAccess& access = relationships_[relationship];
  // Relationships have no attribute updates; an update counts as a delete.
  ++(kind == CrudKind::kInsert ? access.inserts : access.deletes);
}

WorkloadSnapshot WorkloadProfile::Snapshot() const {
  WorkloadSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.statements = statements_;
    snapshot.entities = entities_;
    snapshot.relationships = relationships_;
    snapshot.attributes = attributes_;
    snapshot.shapes.reserve(shapes_.size());
    for (const auto& entry : shapes_) snapshot.shapes.push_back(entry.second);
  }
  std::sort(snapshot.shapes.begin(), snapshot.shapes.end(),
            [](const WorkloadSnapshot::Shape& a,
               const WorkloadSnapshot::Shape& b) {
              if (a.total_wall_ns != b.total_wall_ns) {
                return a.total_wall_ns > b.total_wall_ns;
              }
              return a.shape < b.shape;
            });
  return snapshot;
}

void WorkloadProfile::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  statements_ = 0;
  entities_.clear();
  relationships_.clear();
  attributes_.clear();
  shapes_.clear();
}

Status WorkloadProfile::LoadJson(const std::string& json) {
  WorkloadSnapshot snapshot;
  ERBIUM_RETURN_NOT_OK(SnapshotParser(json).Parse(&snapshot));
  if (snapshot.shapes.size() > shape_capacity_) {
    return Status::InvalidArgument(
        "workload snapshot holds " + std::to_string(snapshot.shapes.size()) +
        " shapes, more than this profile's capacity of " +
        std::to_string(shape_capacity_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  statements_ = snapshot.statements;
  entities_ = std::move(snapshot.entities);
  relationships_ = std::move(snapshot.relationships);
  attributes_ = std::move(snapshot.attributes);
  shapes_.clear();
  for (WorkloadSnapshot::Shape& shape : snapshot.shapes) {
    std::string key = shape.shape;
    shapes_.insert_or_assign(std::move(key), std::move(shape));
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace erbium
