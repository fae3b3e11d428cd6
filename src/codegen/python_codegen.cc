#include "codegen/python_codegen.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "support/check.h"
#include "support/string_util.h"

namespace ramiel {
namespace {

/// Sanitizes a value/node name into a Python identifier with an SSA-style
/// "v_" prefix.
std::string ssa_name(const std::string& name) {
  std::string out = "v_";
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

std::string py_int_list(const std::vector<std::int64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

/// The shared module prelude: imports plus the tagged-queue receive helper.
const char* kPrelude =
    R"(import torch
import torch.multiprocessing as mp


def recv(queue, buffer, tag):
    """Tagged receive: queues deliver (tag, tensor) pairs; out-of-order
    arrivals are parked in `buffer` until their consumer asks for them."""
    while tag not in buffer:
        key, value = queue.get()
        buffer[key] = value
    return buffer.pop(tag)

)";

}  // namespace

namespace {

/// Re-expands the fused-epilogue "act" attr (set by the fuse-activations
/// pattern) in the generated PyTorch, which has no fused conv/gemm epilogue
/// to target.
std::string wrap_fused_activation(const Node& n, std::string expr) {
  if (!n.attrs.has("act")) return expr;
  const std::string& act = n.attrs.get_str("act");
  if (act == "relu") return str_cat("torch.relu(", expr, ")");
  if (act == "sigmoid") return str_cat("torch.sigmoid(", expr, ")");
  return expr;
}

}  // namespace

std::string torch_expression(const Node& n,
                             const std::vector<std::string>& in) {
  switch (n.kind) {
    case OpKind::kConv2d: {
      std::string expr = str_cat("torch.nn.functional.conv2d(", in[0], ", ",
                                 in[1], ", ", in.size() > 2 ? in[2] : "None");
      expr += str_cat(", stride=", n.attrs.get_int("stride", 1),
                      ", padding=", n.attrs.get_int("pad", 0),
                      ", dilation=", n.attrs.get_int("dilation", 1),
                      ", groups=", n.attrs.get_int("groups", 1), ")");
      return wrap_fused_activation(n, std::move(expr));
    }
    case OpKind::kMaxPool:
    case OpKind::kAvgPool: {
      const char* fn = n.kind == OpKind::kMaxPool
                           ? "torch.nn.functional.max_pool2d"
                           : "torch.nn.functional.avg_pool2d";
      const std::int64_t k = n.attrs.get_int("kernel");
      return str_cat(fn, "(", in[0], ", ", k, ", stride=",
                     n.attrs.get_int("stride", k), ", padding=",
                     n.attrs.get_int("pad", 0), ")");
    }
    case OpKind::kGlobalAvgPool:
      return str_cat("torch.nn.functional.adaptive_avg_pool2d(", in[0],
                     ", (1, 1))");
    case OpKind::kResize:
      return str_cat("torch.nn.functional.interpolate(", in[0],
                     ", scale_factor=", n.attrs.get_int("scale"),
                     ", mode='nearest')");
    case OpKind::kMatMul:
      return str_cat("torch.matmul(", in[0], ", ", in[1], ")");
    case OpKind::kGemm: {
      std::string a = in[0];
      std::string b = in[1];
      if (n.attrs.get_int("trans_a", 0) != 0) a = str_cat(a, ".t()");
      if (n.attrs.get_int("trans_b", 0) != 0) b = str_cat(b, ".t()");
      std::string expr = str_cat("torch.matmul(", a, ", ", b, ")");
      if (in.size() > 2) expr = str_cat(expr, " + ", in[2]);
      return wrap_fused_activation(n, std::move(expr));
    }
    case OpKind::kRelu:
      return str_cat("torch.relu(", in[0], ")");
    case OpKind::kLeakyRelu:
      return str_cat("torch.nn.functional.leaky_relu(", in[0],
                     ", negative_slope=", n.attrs.get_float("alpha", 0.01), ")");
    case OpKind::kSigmoid:
      return str_cat("torch.sigmoid(", in[0], ")");
    case OpKind::kSilu:
      return str_cat("torch.nn.functional.silu(", in[0], ")");
    case OpKind::kTanh:
      return str_cat("torch.tanh(", in[0], ")");
    case OpKind::kGelu:
      return str_cat("torch.nn.functional.gelu(", in[0], ")");
    case OpKind::kErf:
      return str_cat("torch.erf(", in[0], ")");
    case OpKind::kSqrt:
      return str_cat("torch.sqrt(", in[0], ")");
    case OpKind::kExp:
      return str_cat("torch.exp(", in[0], ")");
    case OpKind::kNeg:
      return str_cat("torch.neg(", in[0], ")");
    case OpKind::kIdentity:
      return in[0];
    case OpKind::kAdd:
      return str_cat(in[0], " + ", in[1]);
    case OpKind::kSub:
      return str_cat(in[0], " - ", in[1]);
    case OpKind::kMul:
      return str_cat(in[0], " * ", in[1]);
    case OpKind::kDiv:
      return str_cat(in[0], " / ", in[1]);
    case OpKind::kPow:
      return str_cat("torch.pow(", in[0], ", ", in[1], ")");
    case OpKind::kBatchNorm:
      return str_cat("torch.nn.functional.batch_norm(", in[0], ", ", in[3],
                     ", ", in[4], ", weight=", in[1], ", bias=", in[2],
                     ", eps=", n.attrs.get_float("epsilon", 1e-5), ")");
    case OpKind::kLayerNorm:
      return str_cat("torch.nn.functional.layer_norm(", in[0], ", ", in[0],
                     ".shape[-1:], weight=", in[1], ", bias=", in[2], ", eps=",
                     n.attrs.get_float("epsilon", 1e-5), ")");
    case OpKind::kSoftmax:
      return str_cat("torch.softmax(", in[0], ", dim=",
                     n.attrs.get_int("axis", -1), ")");
    case OpKind::kReduceMean:
      return str_cat("torch.mean(", in[0], ", dim=",
                     py_int_list(n.attrs.get_ints("axes")), ", keepdim=True)");
    case OpKind::kConcat: {
      std::string expr = "torch.cat([";
      for (std::size_t i = 0; i < in.size(); ++i) {
        if (i) expr += ", ";
        expr += in[i];
      }
      return str_cat(expr, "], dim=", n.attrs.get_int("axis"), ")");
    }
    case OpKind::kSlice: {
      // Build a python slicing expression on one axis. Negative axes cannot
      // be rendered positionally without the rank; emit torch.narrow-style
      // indexing via slice() on the normalized axis instead.
      const int axis = static_cast<int>(n.attrs.get_int("axis"));
      if (axis < 0) {
        const std::int64_t step = n.attrs.get_int("step", 1);
        std::string expr = str_cat(in[0], ".index_select(", axis,
                                   ", torch.arange(", n.attrs.get_int("begin"),
                                   ", ", n.attrs.get_int("end"));
        if (step != 1) expr = str_cat(expr, ", ", step);
        return str_cat(expr, "))");
      }
      std::string idx;
      for (int d = 0; d < axis; ++d) idx += ":, ";
      idx += str_cat(n.attrs.get_int("begin"), ":", n.attrs.get_int("end"));
      const std::int64_t step = n.attrs.get_int("step", 1);
      if (step != 1) idx += str_cat(":", step);
      return str_cat(in[0], "[", idx, "]");
    }
    case OpKind::kGather:
      return str_cat("torch.index_select(", in[0], ", ",
                     n.attrs.get_int("axis", 0), ", ", in[1],
                     ".long().flatten())");
    case OpKind::kTranspose:
      return str_cat(in[0], ".permute(", py_int_list(n.attrs.get_ints("perm")),
                     ")");
    case OpKind::kReshape:
      if (n.attrs.has("shape")) {
        return str_cat("torch.reshape(", in[0], ", ",
                       py_int_list(n.attrs.get_ints("shape")), ")");
      }
      return str_cat("torch.reshape(", in[0], ", [int(d) for d in ", in[1],
                     "])");
    case OpKind::kFlatten:
      return str_cat("torch.flatten(", in[0], ", start_dim=",
                     n.attrs.get_int("axis", 1), ")");
    case OpKind::kShape:
      return str_cat("torch.tensor(", in[0], ".shape, dtype=torch.float32)");
    case OpKind::kUnsqueeze: {
      std::string expr = in[0];
      for (std::int64_t a : n.attrs.get_ints("axes")) {
        expr = str_cat(expr, ".unsqueeze(", a, ")");
      }
      return expr;
    }
    case OpKind::kSqueeze: {
      std::string expr = in[0];
      auto axes = n.attrs.get_ints("axes");
      // Squeeze back-to-front so earlier axis indices stay valid.
      std::sort(axes.rbegin(), axes.rend());
      for (std::int64_t a : axes) expr = str_cat(expr, ".squeeze(", a, ")");
      return expr;
    }
    case OpKind::kEmbedding:
      return str_cat("torch.nn.functional.embedding(", in[1], ".long(), ",
                     in[0], ")");
    case OpKind::kConstant:
      RAMIEL_UNREACHABLE("Constant nodes are materialized as weights");
  }
  RAMIEL_UNREACHABLE("unhandled op in torch_expression");
}

CodegenResult generate_python(const Graph& graph, const Clustering& clustering,
                              const CodegenOptions& options) {
  CodegenResult result;
  const int k = clustering.size();

  // Which directed queues exist: (producer cluster, consumer cluster).
  std::set<std::pair<int, int>> queues;
  for (const Node& n : graph.nodes()) {
    if (n.dead || n.kind == OpKind::kConstant) continue;
    const int cn = clustering.cluster_of[static_cast<std::size_t>(n.id)];
    for (ValueId ov : n.outputs) {
      for (NodeId c : graph.value(ov).consumers) {
        if (graph.node(c).dead) continue;
        const int cc = clustering.cluster_of[static_cast<std::size_t>(c)];
        if (cc != cn) queues.emplace(cn, cc);
      }
    }
  }
  result.num_queues = static_cast<int>(queues.size());
  auto queue_name = [](int from, int to) {
    return str_cat("q_", from, "_", to);
  };

  // Expression for reading a value inside cluster `me`. Remote reads emit a
  // recv() statement first (once per value) via `body`.
  auto emit_read = [&](int me, ValueId v, std::ostringstream& body,
                       std::set<ValueId>& received) -> std::string {
    const Value& val = graph.value(v);
    if (val.is_constant()) return str_cat("weights['", val.name, "']");
    if (val.producer == kNoNode || graph.node(val.producer).dead) {
      return str_cat("inputs['", val.name, "']");
    }
    const int pc = clustering.cluster_of[static_cast<std::size_t>(val.producer)];
    if (pc == me) return ssa_name(val.name);
    if (received.insert(v).second) {
      body << "    " << ssa_name(val.name) << " = recv("
           << queue_name(pc, me) << ", buffer, '" << val.name
           << "')  # from cluster " << pc << "\n";
      ++result.num_messages;
    }
    return ssa_name(val.name);
  };

  std::ostringstream par;
  par << "\"\"\"Parallel PyTorch code generated by Ramiel for model '"
      << options.model_name << "'.\n\n"
      << "One function per cluster; cross-cluster tensors travel through\n"
         "tagged multiprocessing queues. Weights are loaded from '"
      << options.weights_path << "'.\n\"\"\"\n"
      << kPrelude;

  for (int c = 0; c < k; ++c) {
    // Function signature: the queues this cluster touches.
    std::vector<std::string> params;
    for (const auto& [from, to] : queues) {
      if (from == c || to == c) params.push_back(queue_name(from, to));
    }
    par << "\ndef cluster_" << c << "(" << join(params, ", ")
        << (params.empty() ? "" : ", ") << "inputs, weights, outputs):\n";
    par << "    buffer = {}\n";
    std::ostringstream body;
    std::set<ValueId> received;
    int statements = 0;
    for (NodeId id : clustering.clusters[static_cast<std::size_t>(c)].nodes) {
      const Node& n = graph.node(id);
      if (n.kind == OpKind::kConstant) continue;  // materialized as weights
      RAMIEL_CHECK(n.outputs.size() == 1,
                   "code generation supports single-output nodes only");
      std::vector<std::string> ins;
      ins.reserve(n.inputs.size());
      for (ValueId v : n.inputs) ins.push_back(emit_read(c, v, body, received));
      const Value& out = graph.value(n.outputs[0]);
      body << "    " << ssa_name(out.name) << " = "
           << torch_expression(n, ins) << "  # " << op_kind_name(n.kind)
           << " '" << n.name << "'\n";
      ++statements;
      // Sends: one tagged put per remote consumer cluster per output.
      for (ValueId ov : n.outputs) {
        std::set<int> dests;
        for (NodeId cons : graph.value(ov).consumers) {
          if (graph.node(cons).dead) continue;
          const int cc = clustering.cluster_of[static_cast<std::size_t>(cons)];
          if (cc != c) dests.insert(cc);
        }
        for (int dest : dests) {
          body << "    " << queue_name(c, dest) << ".put(('"
               << graph.value(ov).name << "', " << ssa_name(graph.value(ov).name)
               << "))  # -> cluster " << dest << "\n";
        }
        if (std::find(graph.outputs().begin(), graph.outputs().end(), ov) !=
            graph.outputs().end()) {
          body << "    outputs['" << graph.value(ov).name << "'] = "
               << ssa_name(graph.value(ov).name) << "\n";
        }
      }
    }
    if (statements == 0) body << "    pass\n";
    par << body.str();
  }

  // main(): build queues, spawn one process per cluster.
  par << "\n\ndef main(inputs, weights):\n"
      << "    manager = mp.Manager()\n"
      << "    outputs = manager.dict()\n";
  for (const auto& [from, to] : queues) {
    par << "    " << queue_name(from, to) << " = mp.Queue()\n";
  }
  par << "    procs = []\n";
  for (int c = 0; c < k; ++c) {
    std::vector<std::string> args;
    for (const auto& [from, to] : queues) {
      if (from == c || to == c) args.push_back(queue_name(from, to));
    }
    par << "    procs.append(mp.Process(target=cluster_" << c << ", args=("
        << join(args, ", ") << (args.empty() ? "" : ", ")
        << "inputs, weights, outputs)))\n";
  }
  par << "    for p in procs:\n        p.start()\n"
      << "    for p in procs:\n        p.join()\n"
      << "    return dict(outputs)\n";
  result.parallel_source = par.str();

  // Sequential reference: one function, topological order.
  std::ostringstream seq;
  seq << "\"\"\"Sequential reference generated by Ramiel for model '"
      << options.model_name << "'.\"\"\"\n"
      << "import torch\n\n\n"
      << "def run_sequential(inputs, weights):\n"
      << "    outputs = {}\n";
  for (NodeId id : graph.topo_order()) {
    const Node& n = graph.node(id);
    if (n.kind == OpKind::kConstant) continue;
    std::vector<std::string> ins;
    for (ValueId v : n.inputs) {
      const Value& val = graph.value(v);
      if (val.is_constant()) {
        ins.push_back(str_cat("weights['", val.name, "']"));
      } else if (val.producer == kNoNode || graph.node(val.producer).dead) {
        ins.push_back(str_cat("inputs['", val.name, "']"));
      } else {
        ins.push_back(ssa_name(val.name));
      }
    }
    const Value& out = graph.value(n.outputs[0]);
    seq << "    " << ssa_name(out.name) << " = " << torch_expression(n, ins)
        << "  # " << op_kind_name(n.kind) << "\n";
    for (ValueId ov : n.outputs) {
      if (std::find(graph.outputs().begin(), graph.outputs().end(), ov) !=
          graph.outputs().end()) {
        seq << "    outputs['" << graph.value(ov).name << "'] = "
            << ssa_name(graph.value(ov).name) << "\n";
      }
    }
  }
  seq << "    return outputs\n";
  result.sequential_source = seq.str();
  return result;
}

std::string generate_python_hyper(const Graph& graph,
                                  const Hyperclustering& hc,
                                  const CodegenOptions& options) {
  const int k = static_cast<int>(hc.workers.size());
  auto queue_name = [](int from, int to) {
    return str_cat("q_", from, "_", to);
  };
  auto sample_ssa = [](const Value& v, int s) {
    return str_cat(ssa_name(v.name), "_s", s);
  };

  // Directed worker pairs that exchange at least one message.
  std::set<std::pair<int, int>> queues;
  for (const Node& n : graph.nodes()) {
    if (n.dead || n.kind == OpKind::kConstant) continue;
    for (int s = 0; s < hc.batch; ++s) {
      const int wn = hc.worker(n.id, s);
      for (ValueId ov : n.outputs) {
        for (NodeId c : graph.value(ov).consumers) {
          if (graph.node(c).dead) continue;
          const int wc = hc.worker(c, s);
          if (wc != wn) queues.emplace(wn, wc);
        }
      }
    }
  }

  std::ostringstream os;
  os << "\"\"\"Hyperclustered parallel PyTorch code generated by Ramiel for "
        "model '"
     << options.model_name << "' (batch " << hc.batch << ").\n\n"
     << "Each worker interleaves the ops of " << hc.batch
     << " in-flight samples; message tags carry (value, sample).\n\"\"\"\n"
     << kPrelude;

  for (int w = 0; w < k; ++w) {
    std::vector<std::string> params;
    for (const auto& [from, to] : queues) {
      if (from == w || to == w) params.push_back(queue_name(from, to));
    }
    os << "\ndef worker_" << w << "(" << join(params, ", ")
       << (params.empty() ? "" : ", ") << "inputs, weights, outputs):\n"
       << "    # inputs/outputs are lists indexed by sample.\n"
       << "    buffer = {}\n";
    std::set<std::pair<ValueId, int>> received;
    int statements = 0;
    for (const HyperTask& task : hc.workers[static_cast<std::size_t>(w)]) {
      const Node& n = graph.node(task.node);
      if (n.kind == OpKind::kConstant) continue;
      const int s = task.sample;
      std::vector<std::string> ins;
      for (ValueId v : n.inputs) {
        const Value& val = graph.value(v);
        if (val.is_constant()) {
          ins.push_back(str_cat("weights['", val.name, "']"));
          continue;
        }
        if (val.producer == kNoNode || graph.node(val.producer).dead) {
          ins.push_back(str_cat("inputs[", s, "]['", val.name, "']"));
          continue;
        }
        const int pw = hc.worker(val.producer, s);
        if (pw != w && received.insert({v, s}).second) {
          os << "    " << sample_ssa(val, s) << " = recv("
             << queue_name(pw, w) << ", buffer, ('" << val.name << "', " << s
             << "))  # from worker " << pw << "\n";
        }
        ins.push_back(sample_ssa(val, s));
      }
      const Value& out = graph.value(n.outputs[0]);
      os << "    " << sample_ssa(out, s) << " = " << torch_expression(n, ins)
         << "  # " << op_kind_name(n.kind) << " sample " << s << "\n";
      ++statements;
      for (ValueId ov : n.outputs) {
        std::set<int> dests;
        for (NodeId c : graph.value(ov).consumers) {
          if (graph.node(c).dead) continue;
          const int wc = hc.worker(c, s);
          if (wc != w) dests.insert(wc);
        }
        for (int dest : dests) {
          os << "    " << queue_name(w, dest) << ".put((('"
             << graph.value(ov).name << "', " << s << "), "
             << sample_ssa(graph.value(ov), s) << "))  # -> worker " << dest
             << "\n";
        }
        if (std::find(graph.outputs().begin(), graph.outputs().end(), ov) !=
            graph.outputs().end()) {
          os << "    outputs[" << s << "]['" << graph.value(ov).name
             << "'] = " << sample_ssa(graph.value(ov), s) << "\n";
        }
      }
    }
    if (statements == 0) os << "    pass\n";
  }

  os << "\n\ndef main(inputs, weights):\n"
     << "    manager = mp.Manager()\n"
     << "    outputs = [manager.dict() for _ in range(" << hc.batch << ")]\n";
  for (const auto& [from, to] : queues) {
    os << "    " << queue_name(from, to) << " = mp.Queue()\n";
  }
  os << "    procs = []\n";
  for (int w = 0; w < k; ++w) {
    std::vector<std::string> args;
    for (const auto& [from, to] : queues) {
      if (from == w || to == w) args.push_back(queue_name(from, to));
    }
    os << "    procs.append(mp.Process(target=worker_" << w << ", args=("
       << join(args, ", ") << (args.empty() ? "" : ", ")
       << "inputs, weights, outputs)))\n";
  }
  os << "    for p in procs:\n        p.start()\n"
     << "    for p in procs:\n        p.join()\n"
     << "    return [dict(o) for o in outputs]\n";
  return os.str();
}

}  // namespace ramiel
