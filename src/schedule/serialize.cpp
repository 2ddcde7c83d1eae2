#include "schedule/serialize.hpp"

#include <limits>
#include <stdexcept>

namespace ios {

namespace {

JsonValue attrs_to_json(const Op& op) {
  JsonValue a = JsonValue::object();
  switch (op.kind) {
    case OpKind::kConv2d: {
      const Conv2dAttrs& c = op.conv();
      a.set("out_channels", c.out_channels);
      a.set("kh", c.kh).set("kw", c.kw);
      a.set("sh", c.sh).set("sw", c.sw);
      a.set("ph", c.ph).set("pw", c.pw);
      a.set("post_relu", c.post_relu);
      break;
    }
    case OpKind::kSepConv: {
      const SepConvAttrs& s = op.sepconv();
      a.set("out_channels", s.out_channels);
      a.set("k", s.k);
      a.set("sh", s.sh).set("sw", s.sw);
      a.set("ph", s.ph).set("pw", s.pw);
      a.set("pre_relu", s.pre_relu);
      break;
    }
    case OpKind::kPool2d: {
      const Pool2dAttrs& p = op.pool();
      a.set("pool_kind", static_cast<int>(p.kind));
      a.set("kh", p.kh).set("kw", p.kw);
      a.set("sh", p.sh).set("sw", p.sw);
      a.set("ph", p.ph).set("pw", p.pw);
      break;
    }
    case OpKind::kMatmul: {
      const MatmulAttrs& m = op.matmul();
      a.set("out_features", m.out_features);
      a.set("post_relu", m.post_relu);
      break;
    }
    case OpKind::kSplit: {
      const SplitAttrs& s = op.split();
      a.set("begin_channel", s.begin_channel);
      a.set("end_channel", s.end_channel);
      break;
    }
    case OpKind::kInput:
      a.set("c", op.output.c).set("h", op.output.h).set("w", op.output.w);
      break;
    default:
      break;
  }
  return a;
}

}  // namespace

JsonValue graph_to_json(const Graph& g) {
  JsonValue root = JsonValue::object();
  root.set("name", g.name());
  root.set("batch", g.batch());
  JsonValue ops = JsonValue::array();
  for (const Op& op : g.ops()) {
    JsonValue o = JsonValue::object();
    o.set("kind", op_kind_name(op.kind));
    o.set("name", op.name);
    o.set("block", op.block);
    JsonValue inputs = JsonValue::array();
    for (OpId in : op.inputs) inputs.push_back(in);
    o.set("inputs", std::move(inputs));
    o.set("attrs", attrs_to_json(op));
    ops.push_back(std::move(o));
  }
  root.set("ops", std::move(ops));
  return root;
}

namespace {

OpKind kind_from_name(const std::string& s) {
  for (OpKind k : {OpKind::kInput, OpKind::kConv2d, OpKind::kSepConv,
                   OpKind::kPool2d, OpKind::kMatmul, OpKind::kRelu,
                   OpKind::kConcat, OpKind::kAdd, OpKind::kIdentity,
                   OpKind::kSplit}) {
    if (s == op_kind_name(k)) return k;
  }
  throw std::runtime_error("unknown op kind: " + s);
}

std::vector<OpId> inputs_of(const JsonValue& o) {
  std::vector<OpId> ins;
  for (const JsonValue& v : o.at("inputs").as_array()) {
    ins.push_back(static_cast<OpId>(v.as_int()));
  }
  return ins;
}

}  // namespace

Graph graph_from_json(const JsonValue& v) {
  Graph g(static_cast<int>(v.at("batch").as_int()),
          v.at("name").as_string());
  // Ops must be stored with non-decreasing block indices (true for any graph
  // produced by the builder API); block structure is replayed with
  // begin_block(). The builder maps "blocks begun == b + 1" to block b.
  int blocks_begun = 0;
  for (const JsonValue& o : v.at("ops").as_array()) {
    const OpKind kind = kind_from_name(o.at("kind").as_string());
    const std::string name = o.at("name").as_string();
    const int block = static_cast<int>(o.at("block").as_int());
    if (block < blocks_begun - 1) {
      throw std::runtime_error("op blocks are not non-decreasing");
    }
    while (blocks_begun < block + 1) {
      g.begin_block();
      ++blocks_begun;
    }

    const JsonValue& a = o.at("attrs");
    const std::vector<OpId> ins = inputs_of(o);
    const OpId id = [&]() -> OpId {
      switch (kind) {
        case OpKind::kInput:
          return g.input(static_cast<int>(a.at("c").as_int()),
                         static_cast<int>(a.at("h").as_int()),
                         static_cast<int>(a.at("w").as_int()), name);
        case OpKind::kConv2d:
          return g.conv2d(
              ins.at(0),
              Conv2dAttrs{
                  .out_channels = static_cast<int>(a.at("out_channels").as_int()),
                  .kh = static_cast<int>(a.at("kh").as_int()),
                  .kw = static_cast<int>(a.at("kw").as_int()),
                  .sh = static_cast<int>(a.at("sh").as_int()),
                  .sw = static_cast<int>(a.at("sw").as_int()),
                  .ph = static_cast<int>(a.at("ph").as_int()),
                  .pw = static_cast<int>(a.at("pw").as_int()),
                  .post_relu = a.at("post_relu").as_bool()},
              name);
        case OpKind::kSepConv:
          return g.sepconv(
              std::span<const OpId>(ins),
              SepConvAttrs{
                  .out_channels = static_cast<int>(a.at("out_channels").as_int()),
                  .k = static_cast<int>(a.at("k").as_int()),
                  .sh = static_cast<int>(a.at("sh").as_int()),
                  .sw = static_cast<int>(a.at("sw").as_int()),
                  .ph = static_cast<int>(a.at("ph").as_int()),
                  .pw = static_cast<int>(a.at("pw").as_int()),
                  .pre_relu = a.at("pre_relu").as_bool()},
              name);
        case OpKind::kPool2d:
          return g.pool2d(
              ins.at(0),
              Pool2dAttrs{
                  static_cast<Pool2dAttrs::Kind>(a.at("pool_kind").as_int()),
                  static_cast<int>(a.at("kh").as_int()),
                  static_cast<int>(a.at("kw").as_int()),
                  static_cast<int>(a.at("sh").as_int()),
                  static_cast<int>(a.at("sw").as_int()),
                  static_cast<int>(a.at("ph").as_int()),
                  static_cast<int>(a.at("pw").as_int())},
              name);
        case OpKind::kMatmul:
          return g.matmul(
              ins.at(0),
              MatmulAttrs{.out_features =
                              static_cast<int>(a.at("out_features").as_int()),
                          .post_relu = a.at("post_relu").as_bool()},
              name);
        case OpKind::kRelu:
          return g.relu(ins.at(0), name);
        case OpKind::kConcat:
          return g.concat(ins, name);
        case OpKind::kAdd:
          return g.add(ins.at(0), ins.at(1), name);
        case OpKind::kIdentity:
          return g.identity(ins.at(0), name);
        case OpKind::kSplit:
          return g.split(ins.at(0),
                         static_cast<int>(a.at("begin_channel").as_int()),
                         static_cast<int>(a.at("end_channel").as_int()), name);
      }
      throw std::logic_error("unhandled kind");
    }();
    (void)id;
  }
  g.validate();
  return g;
}

JsonValue schedule_to_json(const Schedule& q) {
  JsonValue stages = JsonValue::array();
  for (const Stage& s : q.stages) {
    JsonValue stage = JsonValue::object();
    stage.set("strategy", stage_strategy_name(s.strategy));
    JsonValue groups = JsonValue::array();
    for (const Group& grp : s.groups) {
      JsonValue ops = JsonValue::array();
      for (OpId id : grp.ops) ops.push_back(id);
      groups.push_back(std::move(ops));
    }
    stage.set("groups", std::move(groups));
    stages.push_back(std::move(stage));
  }
  JsonValue root = JsonValue::object();
  root.set("stages", std::move(stages));
  return root;
}

Schedule schedule_from_json(const JsonValue& v) {
  Schedule q;
  for (const JsonValue& s : v.at("stages").as_array()) {
    Stage stage;
    const std::string strat = s.at("strategy").as_string();
    if (strat == "merge") {
      stage.strategy = StageStrategy::kMerge;
    } else if (strat == "concurrent") {
      stage.strategy = StageStrategy::kConcurrent;
    } else {
      throw std::runtime_error("unknown stage strategy: " + strat);
    }
    for (const JsonValue& grp : s.at("groups").as_array()) {
      Group group;
      for (const JsonValue& id : grp.as_array()) {
        // Range-check before narrowing: an id beyond OpId would wrap onto
        // a real op.
        const double value = id.as_number();
        if (!(value >= 0 && value <= std::numeric_limits<OpId>::max())) {
          throw std::runtime_error("op id out of range: " + id.dump());
        }
        group.ops.push_back(static_cast<OpId>(id.as_int()));
      }
      stage.groups.push_back(std::move(group));
    }
    q.stages.push_back(std::move(stage));
  }
  return q;
}

JsonValue recipe_to_json(const Recipe& r) {
  JsonValue root = JsonValue::object();
  root.set("model", r.model);
  root.set("device", r.device);
  root.set("batch", r.batch);
  root.set("variant", ios_variant_name(r.variant));
  JsonValue pruning = JsonValue::object();
  pruning.set("r", r.pruning.r);
  pruning.set("s", r.pruning.s);
  root.set("pruning", std::move(pruning));
  root.set("schedule", schedule_to_json(r.schedule));
  if (r.graph) root.set("graph", graph_to_json(*r.graph));
  return root;
}

Recipe recipe_from_json(const JsonValue& v) {
  Recipe r;
  r.model = v.at("model").as_string();
  r.device = v.at("device").as_string();
  r.batch = static_cast<int>(v.at("batch").as_int());
  const std::string variant = v.at("variant").as_string();
  if (variant == "IOS-Both") {
    r.variant = IosVariant::kBoth;
  } else if (variant == "IOS-Parallel") {
    r.variant = IosVariant::kParallel;
  } else if (variant == "IOS-Merge") {
    r.variant = IosVariant::kMerge;
  } else {
    throw std::runtime_error("unknown variant: " + variant);
  }
  r.pruning.r = static_cast<int>(v.at("pruning").at("r").as_int());
  r.pruning.s = static_cast<int>(v.at("pruning").at("s").as_int());
  r.schedule = schedule_from_json(v.at("schedule"));
  if (v.contains("graph")) r.graph = graph_from_json(v.at("graph"));
  return r;
}

void save_recipe(const Recipe& r, const std::string& path) {
  // Crash-safe like ProfileDb::save: temp + fsync + atomic rename, with an
  // embedded content checksum so a torn or bit-rotted recipe is rejected on
  // load instead of silently mis-scheduling.
  write_file_atomic(path, with_content_checksum(recipe_to_json(r)).dump());
}

Recipe load_recipe(const std::string& path) {
  // A missing/unreadable file keeps its plain runtime_error; only a file
  // that exists but fails validation becomes CorruptFileError.
  const std::string text = read_file(path);
  try {
    const JsonValue v = JsonValue::parse(text);
    verify_content_checksum(v, "recipe");
    return recipe_from_json(v);
  } catch (const std::exception& e) {
    throw CorruptFileError("recipe: cannot load '" + path + "': " + e.what());
  }
}

}  // namespace ios
