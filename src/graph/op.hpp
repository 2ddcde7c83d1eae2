#pragma once
// Operator IR. Each Op is one *schedule unit* in the sense of Section 5 of
// the paper: a Conv-Relu unit (convolution with fused ReLU), a Relu-SepConv
// unit (ReLU followed by a separable convolution), a pooling, matmul, concat,
// add, or the split that recovers merged-convolution outputs.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "graph/tensor_desc.hpp"

namespace ios {

class JsonValue;  // util/json.hpp

using OpId = int;
inline constexpr OpId kInvalidOp = -1;

enum class OpKind {
  kInput,    ///< graph input placeholder (not schedulable)
  kConv2d,   ///< dense convolution, optionally with fused pre/post ReLU
  kSepConv,  ///< depthwise-separable convolution unit (ReLU-SepConv)
  kPool2d,   ///< max / average / global-average pooling
  kMatmul,   ///< fully connected layer
  kRelu,     ///< standalone activation
  kConcat,   ///< channel concatenation
  kAdd,      ///< elementwise addition (residual)
  kIdentity, ///< passthrough (used by RandWire/NASNet skip edges)
  kSplit,    ///< channel slice recovering one merged-conv output
};

const char* op_kind_name(OpKind k);

struct Conv2dAttrs {
  int out_channels = 0;
  int kh = 1, kw = 1;
  int sh = 1, sw = 1;
  int ph = 0, pw = 0;
  bool post_relu = true;  ///< Conv-Relu unit (Inception / SqueezeNet style)
};

/// Relu-SepConv unit (RandWire / NASNet style). The unit may take several
/// inputs of identical shape; they are aggregated by summation before the
/// activation (RandWire's node aggregation), so one graph node stays one
/// schedule unit.
struct SepConvAttrs {
  int out_channels = 0;
  int k = 3;        ///< depthwise kernel extent (k x k)
  int sh = 1, sw = 1;
  int ph = 1, pw = 1;
  bool pre_relu = true;
};

struct Pool2dAttrs {
  enum class Kind { kMax, kAvg, kGlobalAvg };
  Kind kind = Kind::kMax;
  int kh = 2, kw = 2;
  int sh = 2, sw = 2;
  int ph = 0, pw = 0;
};

struct MatmulAttrs {
  int out_features = 0;
  bool post_relu = false;
};

struct ConcatAttrs {};   ///< concat along the channel axis
struct SplitAttrs {
  int begin_channel = 0;  ///< [begin, end) channel slice of the input
  int end_channel = 0;
};
struct NoAttrs {};

using OpAttrs = std::variant<NoAttrs, Conv2dAttrs, SepConvAttrs, Pool2dAttrs,
                             MatmulAttrs, ConcatAttrs, SplitAttrs>;

struct Op {
  OpId id = kInvalidOp;
  OpKind kind = OpKind::kInput;
  std::string name;
  std::vector<OpId> inputs;  ///< producer op ids, in argument order
  TensorDesc output;
  int block = 0;  ///< block index for block-wise scheduling (Section 4.2)
  OpAttrs attrs;

  const Conv2dAttrs& conv() const { return std::get<Conv2dAttrs>(attrs); }
  const SepConvAttrs& sepconv() const { return std::get<SepConvAttrs>(attrs); }
  const Pool2dAttrs& pool() const { return std::get<Pool2dAttrs>(attrs); }
  const MatmulAttrs& matmul() const { return std::get<MatmulAttrs>(attrs); }
  const SplitAttrs& split() const { return std::get<SplitAttrs>(attrs); }

  bool schedulable() const { return kind != OpKind::kInput; }
};

/// Floating point operations performed by one op (multiply-accumulate
/// counted as 2 FLOPs, matching the paper's Figure 1 accounting).
std::int64_t op_flops(const Op& op, const std::vector<TensorDesc>& in_descs);

/// Bytes of parameters (conv kernels / FC weights) read by the op.
std::int64_t op_weight_bytes(const Op& op,
                             const std::vector<TensorDesc>& in_descs);

/// The op's kind-specific attributes as a JSON object (the input
/// placeholder's c/h/w; {} for kinds without attributes). This is the one
/// list of attribute fields: the graph serializer writes it, and the block
/// template cache keys structurally identical blocks by it, so a field the
/// round trip needs can never be missing from the template key.
JsonValue attrs_to_json(const Op& op);

}  // namespace ios
