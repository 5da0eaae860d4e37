#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "obs/json.h"

namespace sgxpl::obs {

const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kStep:
      return "step";
    case Phase::kFault:
      return "fault";
    case Phase::kPageTableLookup:
      return "page_table_lookup";
    case Phase::kBitmapCheck:
      return "bitmap_check";
    case Phase::kPredictorUpdate:
      return "predictor_update";
    case Phase::kPreloadIssue:
      return "preload_issue";
    case Phase::kChannelService:
      return "channel_service";
    case Phase::kRetrySweep:
      return "retry_sweep";
    case Phase::kEviction:
      return "eviction";
    case Phase::kScan:
      return "scan";
    case Phase::kDfpScan:
      return "dfp_scan";
    case Phase::kSipCheck:
      return "sip_check";
    case Phase::kSipLoad:
      return "sip_load";
    case Phase::kSipPrefetch:
      return "sip_prefetch";
    case Phase::kSipCompile:
      return "sip_compile";
    case Phase::kSnapshotSave:
      return "snapshot_save";
    case Phase::kSnapshotLoad:
      return "snapshot_load";
    case Phase::kElasticRebalance:
      return "elastic_rebalance";
    case Phase::kFleetRecover:
      return "fleet_recover";
    case Phase::kFleetEvacuate:
      return "fleet_evacuate";
    case Phase::kWatchdog:
      return "watchdog";
  }
  return "?";
}

std::optional<Phase> parse_phase(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    if (name == to_string(p)) {
      return p;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// PhaseProfile
// ---------------------------------------------------------------------------

PhaseProfile::Node& PhaseProfile::Node::child(Phase p) {
  auto it = std::lower_bound(children.begin(), children.end(), p,
                             [](const Node& n, Phase target) {
                               return n.phase < target;
                             });
  if (it == children.end() || it->phase != p) {
    Node fresh;
    fresh.phase = p;
    it = children.insert(it, std::move(fresh));
  }
  return *it;
}

const PhaseProfile::Node* PhaseProfile::Node::find_child(
    Phase p) const noexcept {
  for (const Node& c : children) {
    if (c.phase == p) {
      return &c;
    }
  }
  return nullptr;
}

namespace {

std::uint64_t count_nodes(const std::vector<PhaseProfile::Node>& nodes) {
  std::uint64_t n = 0;
  for (const auto& node : nodes) {
    n += 1 + count_nodes(node.children);
  }
  return n;
}

PhaseProfile::Node& root_for(std::vector<PhaseProfile::Node>& roots, Phase p) {
  auto it = std::lower_bound(roots.begin(), roots.end(), p,
                             [](const PhaseProfile::Node& n, Phase target) {
                               return n.phase < target;
                             });
  if (it == roots.end() || it->phase != p) {
    PhaseProfile::Node fresh;
    fresh.phase = p;
    it = roots.insert(it, std::move(fresh));
  }
  return *it;
}

void merge_node(PhaseProfile::Node& into, const PhaseProfile::Node& from) {
  into.count += from.count;
  into.wall_ns += from.wall_ns;
  into.sim_cycles += from.sim_cycles;
  for (const auto& c : from.children) {
    merge_node(into.child(c.phase), c);
  }
}

void write_node(JsonWriter& w, const PhaseProfile::Node& n) {
  w.begin_object();
  w.kv("phase", to_string(n.phase))
      .kv("count", n.count)
      .kv("wall_ns", n.wall_ns)
      .kv("cycles", n.sim_cycles);
  w.key("children").begin_array();
  for (const auto& c : n.children) {
    write_node(w, c);
  }
  w.end_array();
  w.end_object();
}

void describe_node(std::ostringstream& oss, const PhaseProfile::Node& n,
                   int depth) {
  for (int i = 0; i < depth; ++i) {
    oss << "  ";
  }
  oss << to_string(n.phase) << ": count=" << n.count
      << " wall_ns=" << n.wall_ns << " cycles=" << n.sim_cycles << '\n';
  for (const auto& c : n.children) {
    describe_node(oss, c, depth + 1);
  }
}

/// Minimal recursive-descent reader for exactly the document to_json
/// emits (the repo deliberately carries no general JSON dependency; the
/// round-trip test and bench_gate consume this format).
class ProfileReader {
 public:
  explicit ProfileReader(std::string_view s) : s_(s) {}

  bool parse(PhaseProfile& out) {
    if (!eat('{')) {
      return fail("expected '{'");
    }
    bool saw_schema = false;
    bool saw_phases = false;
    for (;;) {
      std::string key;
      if (!string_value(key)) {
        return fail("expected object key");
      }
      if (!eat(':')) {
        return fail("expected ':'");
      }
      if (key == "schema") {
        std::string schema;
        if (!string_value(schema)) {
          return fail("schema must be a string");
        }
        if (schema != PhaseProfile::kSchema) {
          err_ = "unsupported schema '" + schema + "'";
          return false;
        }
        saw_schema = true;
      } else if (key == "phases") {
        if (!node_array(out.roots)) {
          return false;
        }
        saw_phases = true;
      } else {
        return fail("unknown key '" + key + "'");
      }
      if (eat(',')) {
        continue;
      }
      break;
    }
    if (!eat('}')) {
      return fail("expected '}'");
    }
    skip_ws();
    if (pos_ != s_.size()) {
      return fail("trailing characters after document");
    }
    if (!saw_schema || !saw_phases) {
      return fail("document lacks schema/phases");
    }
    return true;
  }

  const std::string& error() const noexcept { return err_; }

 private:
  bool fail(const std::string& what) {
    if (err_.empty()) {
      err_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool string_value(std::string& out) {
    if (!eat('"')) {
      return false;
    }
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          return false;
        }
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case '"':
          case '\\':
          case '/':
            c = esc;
            break;
          default:
            return false;  // \uXXXX etc. never appear in phase names
        }
      }
      out.push_back(c);
    }
    return eat('"');
  }

  bool u64_value(std::uint64_t& out) {
    skip_ws();
    const std::size_t start = pos_;
    std::uint64_t v = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(s_[pos_] - '0');
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out = v;
    return true;
  }

  bool node_array(std::vector<PhaseProfile::Node>& out) {
    if (!eat('[')) {
      return fail("expected '['");
    }
    out.clear();
    if (eat(']')) {
      return true;
    }
    for (;;) {
      PhaseProfile::Node n;
      if (!node_object(n)) {
        return false;
      }
      out.push_back(std::move(n));
      if (eat(',')) {
        continue;
      }
      break;
    }
    if (!eat(']')) {
      return fail("expected ']'");
    }
    return true;
  }

  bool node_object(PhaseProfile::Node& n) {
    if (!eat('{')) {
      return fail("expected node object");
    }
    for (;;) {
      std::string key;
      if (!string_value(key)) {
        return fail("expected node key");
      }
      if (!eat(':')) {
        return fail("expected ':'");
      }
      if (key == "phase") {
        std::string name;
        if (!string_value(name)) {
          return fail("phase must be a string");
        }
        const auto p = parse_phase(name);
        if (!p.has_value()) {
          err_ = "unknown phase '" + name + "'";
          return false;
        }
        n.phase = *p;
      } else if (key == "count") {
        if (!u64_value(n.count)) {
          return fail("count must be an unsigned integer");
        }
      } else if (key == "wall_ns") {
        if (!u64_value(n.wall_ns)) {
          return fail("wall_ns must be an unsigned integer");
        }
      } else if (key == "cycles") {
        if (!u64_value(n.sim_cycles)) {
          return fail("cycles must be an unsigned integer");
        }
      } else if (key == "children") {
        if (!node_array(n.children)) {
          return false;
        }
      } else {
        return fail("unknown node key '" + key + "'");
      }
      if (eat(',')) {
        continue;
      }
      break;
    }
    if (!eat('}')) {
      return fail("unterminated node object");
    }
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string err_;
};

}  // namespace

std::uint64_t PhaseProfile::node_count() const noexcept {
  return count_nodes(roots);
}

void PhaseProfile::merge(const PhaseProfile& other) {
  for (const auto& r : other.roots) {
    merge_node(root_for(roots, r.phase), r);
  }
}

const PhaseProfile::Node* PhaseProfile::find(
    std::initializer_list<Phase> path) const noexcept {
  const Node* cur = nullptr;
  const std::vector<Node>* level = &roots;
  for (const Phase p : path) {
    cur = nullptr;
    for (const Node& n : *level) {
      if (n.phase == p) {
        cur = &n;
        break;
      }
    }
    if (cur == nullptr) {
      return nullptr;
    }
    level = &cur->children;
  }
  return cur;
}

void PhaseProfile::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("schema", kSchema);
  w.key("phases").begin_array();
  for (const auto& r : roots) {
    write_node(w, r);
  }
  w.end_array();
  w.end_object();
}

std::string PhaseProfile::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

std::optional<PhaseProfile> PhaseProfile::parse(std::string_view json,
                                                std::string* err) {
  PhaseProfile out;
  ProfileReader reader(json);
  if (!reader.parse(out)) {
    if (err != nullptr) {
      *err = reader.error();
    }
    return std::nullopt;
  }
  return out;
}

std::string PhaseProfile::describe() const {
  std::ostringstream oss;
  for (const auto& r : roots) {
    describe_node(oss, r, 0);
  }
  return oss.str();
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_next_profiler_id{1};
}  // namespace

Profiler::Profiler()
    : instance_id_(g_next_profiler_id.fetch_add(1, std::memory_order_relaxed)) {
}

Profiler::ThreadState& Profiler::thread_state() {
  thread_local struct {
    std::uint64_t owner = 0;
    ThreadState* state = nullptr;
  } cache;
  if (cache.owner == instance_id_) {
    return *cache.state;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto tid = std::this_thread::get_id();
  for (const auto& s : states_) {
    if (s->tid == tid) {
      cache.owner = instance_id_;
      cache.state = s.get();
      return *s;
    }
  }
  states_.push_back(std::make_unique<ThreadState>());
  states_.back()->tid = tid;
  cache.owner = instance_id_;
  cache.state = states_.back().get();
  return *states_.back();
}

std::uint32_t Profiler::begin(Phase p) {
  ThreadState& ts = thread_state();
  // Find the child of the current span for `p` on its sibling list.
  std::int32_t idx = ts.current >= 0
                         ? ts.nodes[static_cast<std::size_t>(ts.current)]
                               .first_child
                         : (ts.nodes.empty() ? -1 : 0);
  std::int32_t last = -1;
  if (ts.current < 0) {
    // Root level: siblings are the chain starting at node 0 with parent -1.
    while (idx >= 0) {
      NodeSlot& n = ts.nodes[static_cast<std::size_t>(idx)];
      if (n.parent == -1 && n.phase == p) {
        ts.current = idx;
        return static_cast<std::uint32_t>(idx);
      }
      if (n.parent == -1) {
        last = idx;
      }
      idx = n.next_sibling;
    }
    // No root chain or not found: fall through to allocation. Root nodes
    // chain through next_sibling starting from the first root allocated.
  } else {
    while (idx >= 0) {
      NodeSlot& n = ts.nodes[static_cast<std::size_t>(idx)];
      if (n.phase == p) {
        ts.current = idx;
        return static_cast<std::uint32_t>(idx);
      }
      last = idx;
      idx = n.next_sibling;
    }
  }
  const auto fresh = static_cast<std::int32_t>(ts.nodes.size());
  ts.nodes.push_back(NodeSlot{.phase = p, .parent = ts.current});
  if (last >= 0) {
    ts.nodes[static_cast<std::size_t>(last)].next_sibling = fresh;
  } else if (ts.current >= 0) {
    ts.nodes[static_cast<std::size_t>(ts.current)].first_child = fresh;
  }
  ts.current = fresh;
  return static_cast<std::uint32_t>(fresh);
}

void Profiler::end(std::uint32_t slot, std::uint64_t wall_ns,
                   Cycles cycles) noexcept {
  ThreadState& ts = thread_state();
  NodeSlot& n = ts.nodes[slot];
  n.count += 1;
  n.wall_ns += wall_ns;
  n.sim_cycles += cycles;
  ts.current = n.parent;
}

PhaseProfile Profiler::profile() const {
  PhaseProfile out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : states_) {
    // Recover each thread's tree from the flat arena. Addition into the
    // phase-sorted PhaseProfile is commutative, so the merged result does
    // not depend on thread registration order.
    for (std::size_t i = 0; i < s->nodes.size(); ++i) {
      const NodeSlot& n = s->nodes[i];
      if (n.count == 0 && n.wall_ns == 0 && n.sim_cycles == 0) {
        continue;  // span opened but never completed (still on the stack)
      }
      // Build the phase path up to the root, then walk it down the output.
      Phase path[64];
      std::size_t depth = 0;
      std::int32_t at = static_cast<std::int32_t>(i);
      while (at >= 0 && depth < 64) {
        path[depth++] = s->nodes[static_cast<std::size_t>(at)].phase;
        at = s->nodes[static_cast<std::size_t>(at)].parent;
      }
      PhaseProfile::Node* node = &root_for(out.roots, path[depth - 1]);
      for (std::size_t d = depth - 1; d > 0; --d) {
        node = &node->child(path[d - 1]);
      }
      node->count += n.count;
      node->wall_ns += n.wall_ns;
      node->sim_cycles += n.sim_cycles;
    }
  }
  return out;
}

std::size_t Profiler::node_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& s : states_) {
    n += s->nodes.size();
  }
  return n;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : states_) {
    s->nodes.clear();
    s->current = -1;
  }
}

}  // namespace sgxpl::obs
