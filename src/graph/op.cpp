#include "graph/op.hpp"

#include <cassert>

#include "util/json.hpp"

namespace ios {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kInput: return "Input";
    case OpKind::kConv2d: return "Conv";
    case OpKind::kSepConv: return "SepConv";
    case OpKind::kPool2d: return "Pool";
    case OpKind::kMatmul: return "Matmul";
    case OpKind::kRelu: return "Relu";
    case OpKind::kConcat: return "Concat";
    case OpKind::kAdd: return "Add";
    case OpKind::kIdentity: return "Identity";
    case OpKind::kSplit: return "Split";
  }
  return "?";
}

std::int64_t op_flops(const Op& op, const std::vector<TensorDesc>& in_descs) {
  const TensorDesc& out = op.output;
  switch (op.kind) {
    case OpKind::kInput:
      return 0;
    case OpKind::kConv2d: {
      assert(in_descs.size() == 1);
      const auto& a = op.conv();
      // 2 * output elements * kernel volume MACs (+ ReLU, negligible).
      return 2 * out.numel() * in_descs[0].c * a.kh * a.kw;
    }
    case OpKind::kSepConv: {
      assert(!in_descs.empty());
      const auto& a = op.sepconv();
      const std::int64_t aggregate =
          static_cast<std::int64_t>(in_descs.size() - 1) * in_descs[0].numel();
      const std::int64_t depthwise =
          2 * static_cast<std::int64_t>(out.n) * in_descs[0].c * out.h *
          out.w * a.k * a.k;
      const std::int64_t pointwise = 2 * out.numel() * in_descs[0].c;
      return aggregate + depthwise + pointwise;
    }
    case OpKind::kPool2d: {
      const auto& a = op.pool();
      const std::int64_t window =
          a.kind == Pool2dAttrs::Kind::kGlobalAvg
              ? in_descs[0].h * static_cast<std::int64_t>(in_descs[0].w)
              : static_cast<std::int64_t>(a.kh) * a.kw;
      return out.numel() * window;
    }
    case OpKind::kMatmul:
      assert(in_descs.size() == 1);
      return 2 * static_cast<std::int64_t>(out.n) * out.c *
             in_descs[0].numel() / in_descs[0].n;
    case OpKind::kRelu:
    case OpKind::kAdd:
      return out.numel();
    case OpKind::kConcat:
    case OpKind::kIdentity:
    case OpKind::kSplit:
      return 0;  // pure data movement
  }
  return 0;
}

std::int64_t op_weight_bytes(const Op& op,
                             const std::vector<TensorDesc>& in_descs) {
  switch (op.kind) {
    case OpKind::kConv2d: {
      const auto& a = op.conv();
      return 4ll * a.out_channels * in_descs[0].c * a.kh * a.kw;
    }
    case OpKind::kSepConv: {
      const auto& a = op.sepconv();
      const std::int64_t depthwise = 4ll * in_descs[0].c * a.k * a.k;
      const std::int64_t pointwise = 4ll * a.out_channels * in_descs[0].c;
      return depthwise + pointwise;
    }
    case OpKind::kMatmul: {
      const auto& a = op.matmul();
      return 4ll * a.out_features * (in_descs[0].numel() / in_descs[0].n);
    }
    default:
      return 0;
  }
}

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

}  // namespace ios
