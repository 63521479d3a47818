#include "dl2sql/converter.h"

#include <algorithm>
#include <cmath>

#include "db/codec.h"

#include "nn/blocks.h"
#include "nn/layers.h"

namespace dl2sql::core {

using db::Column;
using db::DataType;
using db::Field;
using db::Table;
using db::TableSchema;
using nn::Layer;
using nn::LayerKind;

db::Table GenerateMappingTable(const LayerGeometry& g) {
  std::vector<int64_t> matrix_ids, order_ids, tuple_ids;
  const int64_t k = g.kernel;
  int64_t matrix_id = 0;
  for (int64_t oy = 0; oy < g.out_h; ++oy) {
    for (int64_t ox = 0; ox < g.out_w; ++ox) {
      for (int64_t ic = 0; ic < g.in_c; ++ic) {
        for (int64_t i = 0; i < k; ++i) {
          const int64_t y = oy * g.stride + i - g.pad;
          if (y < 0 || y >= g.in_h) continue;
          for (int64_t j = 0; j < k; ++j) {
            const int64_t x = ox * g.stride + j - g.pad;
            if (x < 0 || x >= g.in_w) continue;
            matrix_ids.push_back(matrix_id);
            order_ids.push_back((ic * k + i) * k + j);
            tuple_ids.push_back((ic * g.in_h + y) * g.in_w + x);
          }
        }
      }
      ++matrix_id;
    }
  }
  TableSchema schema({{"MatrixID", DataType::kInt64},
                      {"OrderID", DataType::kInt64},
                      {"TupleID", DataType::kInt64}});
  auto t = Table::FromColumns(
      schema, {Column::Ints(std::move(matrix_ids)),
               Column::Ints(std::move(order_ids)),
               Column::Ints(std::move(tuple_ids))});
  return std::move(t).ValueOrDie();
}

db::Table GeneratePoolingMap(int64_t channels, int64_t in_h, int64_t in_w,
                             int64_t window, int64_t stride) {
  std::vector<int64_t> matrix_ids, tuple_ids;
  const int64_t out_h = (in_h - window) / stride + 1;
  const int64_t out_w = (in_w - window) / stride + 1;
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t oy = 0; oy < out_h; ++oy) {
      for (int64_t ox = 0; ox < out_w; ++ox) {
        const int64_t matrix_id = (c * out_h + oy) * out_w + ox;
        for (int64_t i = 0; i < window; ++i) {
          for (int64_t j = 0; j < window; ++j) {
            matrix_ids.push_back(matrix_id);
            tuple_ids.push_back(
                (c * in_h + oy * stride + i) * in_w + ox * stride + j);
          }
        }
      }
    }
  }
  TableSchema schema({{"MatrixID", DataType::kInt64},
                      {"TupleID", DataType::kInt64}});
  auto t = Table::FromColumns(schema, {Column::Ints(std::move(matrix_ids)),
                                       Column::Ints(std::move(tuple_ids))});
  return std::move(t).ValueOrDie();
}

db::Table GenerateKernelTable(const Tensor& weight) {
  const int64_t out_c = weight.shape()[0];
  const int64_t in_c = weight.shape()[1];
  const int64_t kh = weight.shape()[2];
  const int64_t kw = weight.shape()[3];
  std::vector<int64_t> kernel_ids, order_ids;
  std::vector<double> values;
  for (int64_t oc = 0; oc < out_c; ++oc) {
    for (int64_t ic = 0; ic < in_c; ++ic) {
      for (int64_t i = 0; i < kh; ++i) {
        for (int64_t j = 0; j < kw; ++j) {
          kernel_ids.push_back(oc);
          order_ids.push_back((ic * kh + i) * kw + j);
          values.push_back(
              static_cast<double>(weight.at((((oc * in_c) + ic) * kh + i) * kw + j)));
        }
      }
    }
  }
  TableSchema schema({{"KernelID", DataType::kInt64},
                      {"OrderID", DataType::kInt64},
                      {"Value", DataType::kFloat64}});
  auto t = Table::FromColumns(
      schema, {Column::Ints(std::move(kernel_ids)),
               Column::Ints(std::move(order_ids)), Column::Floats(std::move(values))});
  return std::move(t).ValueOrDie();
}

db::Table GeneratePreJoinedKernel(const LayerGeometry& g, const Tensor& weight) {
  const Table mapping = GenerateMappingTable(g);
  const int64_t out_c = weight.shape()[0];
  const int64_t in_c = weight.shape()[1];
  const int64_t k = weight.shape()[2];
  const int64_t out_plane = g.out_h * g.out_w;
  std::vector<int64_t> out_ids, tuple_ids;
  std::vector<double> weights;
  const auto& m_matrix = mapping.column(0).ints();
  const auto& m_order = mapping.column(1).ints();
  const auto& m_tuple = mapping.column(2).ints();
  for (size_t r = 0; r < m_matrix.size(); ++r) {
    const int64_t order = m_order[r];
    const int64_t ic = order / (k * k);
    const int64_t rem = order % (k * k);
    const int64_t i = rem / k;
    const int64_t j = rem % k;
    for (int64_t oc = 0; oc < out_c; ++oc) {
      // The flattened output position is precomputed offline so the runtime
      // conv groups by one integer column.
      out_ids.push_back(oc * out_plane + m_matrix[r]);
      tuple_ids.push_back(m_tuple[r]);
      weights.push_back(
          static_cast<double>(weight.at((((oc * in_c) + ic) * k + i) * k + j)));
    }
  }
  TableSchema schema({{"OutTupleID", DataType::kInt64},
                      {"TupleID", DataType::kInt64},
                      {"Weight", DataType::kFloat64}});
  auto t = Table::FromColumns(
      schema, {Column::Ints(std::move(out_ids)), Column::Ints(std::move(tuple_ids)),
               Column::Floats(std::move(weights))});
  return std::move(t).ValueOrDie();
}

namespace {

/// Builds (ChannelID, Scale, Shift) for inference-mode BN.
Table MakeBnTable(const nn::BatchNorm& bn) {
  const int64_t c = bn.gamma().NumElements();
  std::vector<int64_t> channels;
  std::vector<double> scales, shifts;
  for (int64_t i = 0; i < c; ++i) {
    const double scale = static_cast<double>(bn.gamma().at(i)) /
                         std::sqrt(static_cast<double>(bn.running_var().at(i)) +
                                   bn.eps());
    channels.push_back(i);
    scales.push_back(scale);
    shifts.push_back(static_cast<double>(bn.beta().at(i)) -
                     static_cast<double>(bn.running_mean().at(i)) * scale);
  }
  TableSchema schema({{"ChannelID", DataType::kInt64},
                      {"Scale", DataType::kFloat64},
                      {"Shift", DataType::kFloat64}});
  auto t = Table::FromColumns(schema, {Column::Ints(std::move(channels)),
                                       Column::Floats(std::move(scales)),
                                       Column::Floats(std::move(shifts))});
  return std::move(t).ValueOrDie();
}

/// Bias / shift table (KernelID, Bias), one row per output channel.
Table MakeBiasTable(std::vector<double> values) {
  std::vector<int64_t> ids(values.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  TableSchema schema(
      {{"KernelID", DataType::kInt64}, {"Bias", DataType::kFloat64}});
  auto t = Table::FromColumns(
      schema, {Column::Ints(std::move(ids)), Column::Floats(std::move(values))});
  return std::move(t).ValueOrDie();
}

std::vector<double> ToDoubles(const Tensor& t) {
  std::vector<double> out;
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    out.push_back(static_cast<double>(t.at(i)));
  }
  return out;
}

/// FC weights as (RowID, ColID, Value).
Table MakeFcWeightTable(const Tensor& weight) {
  const int64_t rows = weight.shape()[0];
  const int64_t cols = weight.shape()[1];
  std::vector<int64_t> row_ids, col_ids;
  std::vector<double> values;
  row_ids.reserve(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      row_ids.push_back(r);
      col_ids.push_back(c);
      values.push_back(static_cast<double>(weight.at2(r, c)));
    }
  }
  TableSchema schema({{"RowID", DataType::kInt64},
                      {"ColID", DataType::kInt64},
                      {"Value", DataType::kFloat64}});
  auto t = Table::FromColumns(
      schema, {Column::Ints(std::move(row_ids)), Column::Ints(std::move(col_ids)),
               Column::Floats(std::move(values))});
  return std::move(t).ValueOrDie();
}

/// \brief Stateful model walker emitting static tables + runtime SQL.
class Converter {
 public:
  Converter(ConvertOptions options, db::Database* db)
      : options_(std::move(options)), db_(db) {}

  Result<ConvertedModel> Run(const nn::Model& model) {
    out_.prefix = options_.table_prefix;
    out_.model_name = model.name();
    out_.num_classes = model.num_classes();
    out_.input_shape = model.input_shape();
    out_.options = options_;
    out_.input_table = out_.prefix + "_input";

    std::string current = out_.input_table;
    Shape shape = model.input_shape();
    for (const auto& layer : model.layers()) {
      DL2SQL_ASSIGN_OR_RETURN(current, ConvertLayer(*layer, current, &shape));
    }
    out_.output_table = current;
    return std::move(out_);
  }

 private:
  ConvertOptions options_;
  db::Database* db_;
  ConvertedModel out_;
  int op_id_ = 0;

  std::string NewName(const std::string& stem) {
    return out_.prefix + "_" + stem + std::to_string(op_id_);
  }

  /// Registers a static parameter table, optionally building the hash index
  /// the paper prescribes for the join columns ("we build indices on columns
  /// MatrixID, OrderID, and KernelID").
  Status Deploy(const std::string& name, Table table,
                const std::string& index_column = "") {
    DL2SQL_RETURN_NOT_OK(db_->RegisterTable(name, std::move(table)));
    if (!index_column.empty() && options_.build_indexes) {
      DL2SQL_RETURN_NOT_OK(db_->catalog().CreateIndex(name, index_column));
    }
    out_.static_tables.push_back(name);
    return Status::OK();
  }

  /// Emits one runtime op.
  void Emit(const Layer& layer, std::vector<std::string> sql,
            std::string output_table, const LayerGeometry& geom) {
    ConvertedOp op;
    op.kind = layer.kind();
    op.layer_name = layer.name();
    op.runtime_sql = std::move(sql);
    op.output_table = std::move(output_table);
    op.geom = geom;
    out_.ops.push_back(std::move(op));
  }

  /// Converts a layer; returns the flat output table name and updates *shape.
  Result<std::string> ConvertLayer(const Layer& layer, const std::string& in,
                                   Shape* shape) {
    ++op_id_;
    DL2SQL_ASSIGN_OR_RETURN(Shape out_shape, layer.OutputShape(*shape));
    const Shape in_shape = *shape;
    *shape = out_shape;
    switch (layer.kind()) {
      case LayerKind::kConv2d:
        return ConvertConv(static_cast<const nn::Conv2d&>(layer), in, in_shape,
                           out_shape);
      case LayerKind::kBatchNorm:
        return ConvertBn(static_cast<const nn::BatchNorm&>(layer), in, in_shape);
      case LayerKind::kRelu:
        return ConvertRelu(layer, in);
      case LayerKind::kMaxPool:
      case LayerKind::kAvgPool:
        return ConvertPool(layer, in, in_shape, out_shape);
      case LayerKind::kGlobalAvgPool:
        return ConvertGlobalPool(layer, in, in_shape);
      case LayerKind::kFlatten: {
        // Flat layout is already 1-D channel-major; identity.
        Emit(layer, {}, in, {});
        return in;
      }
      case LayerKind::kLinear:
        return ConvertLinear(static_cast<const nn::Linear&>(layer), in);
      case LayerKind::kSoftmax:
        return ConvertSoftmax(layer, in);
      case LayerKind::kResidualBlock:
        return ConvertResidual(static_cast<const nn::ResidualBlock&>(layer), in,
                               in_shape);
      case LayerKind::kIdentityBlock:
        return ConvertIdentity(static_cast<const nn::IdentityBlock&>(layer), in,
                               in_shape);
      case LayerKind::kDenseBlock:
        return ConvertDense(static_cast<const nn::DenseBlock&>(layer), in,
                            in_shape);
      case LayerKind::kBasicAttention:
        return ConvertAttention(static_cast<const nn::BasicAttention&>(layer),
                                in);
      case LayerKind::kDeconv2d:
        return ConvertDeconv(static_cast<const nn::Deconv2d&>(layer), in,
                             in_shape, out_shape);
      case LayerKind::kInstanceNorm:
        return ConvertInstanceNorm(static_cast<const nn::InstanceNorm&>(layer),
                                   in, in_shape);
    }
    return Status::NotImplemented("DL2SQL translation for ",
                                  nn::LayerKindToString(layer.kind()));
  }

  /// A pre-joined conv's tables: its input, pre-joined kernel, bias (named
  /// even when absent, for a folded BN's shift) and output.
  struct PreJoinedConv {
    size_t op_index = 0;
    std::string in, pjk_table, bias_table, out_table;
    bool has_bias = false;
    LayerGeometry geom;
  };

  /// The one statement of a pre-joined conv: the join with its pre-joined
  /// kernel table, grouped by output position, plus its bias when it has
  /// one.
  std::string PreJoinedConvSql(const PreJoinedConv& conv) const {
    const bool batched = options_.batched;
    const std::string b_sel = batched ? "A.BatchID AS BatchID, " : "";
    const std::string b_group = batched ? "A.BatchID, " : "";
    const std::string inner = "SELECT " + b_sel +
                              "B.OutTupleID AS TupleID, sum(A.Value * "
                              "B.Weight) AS Value FROM " +
                              conv.in + " A INNER JOIN " + conv.pjk_table +
                              " B ON A.TupleID = B.TupleID GROUP BY " +
                              b_group + "B.OutTupleID";
    if (!conv.has_bias) {
      return "CREATE TEMP TABLE " + conv.out_table + " AS " + inner;
    }
    return "CREATE TEMP TABLE " + conv.out_table + " AS SELECT " +
           (batched ? "t.BatchID AS BatchID, " : "") +
           "t.TupleID AS TupleID, t.Value + b.Bias AS Value FROM (" + inner +
           ") t, " + conv.bias_table + " b WHERE intDiv(t.TupleID, " +
           std::to_string(conv.geom.out_h * conv.geom.out_w) +
           ") = b.KernelID";
  }

  /// Shared emission of a conv given its (optionally BN-folded) weights.
  Result<std::string> EmitConvSql(const Layer& layer, const std::string& in,
                                  const LayerGeometry& g, const Tensor& weight,
                                  const Tensor* bias) {
    const std::string tag = "conv" + std::to_string(op_id_);
    const std::string out_table = out_.prefix + "_" + tag + "_out";
    const int64_t out_plane = g.out_h * g.out_w;
    std::vector<std::string> sql;

    const std::string bias_table = out_.prefix + "_" + tag + "_bias";
    if (bias != nullptr) {
      DL2SQL_RETURN_NOT_OK(Deploy(bias_table, MakeBiasTable(ToDoubles(*bias))));
    }

    // In batched mode every activation row carries a BatchID that is
    // projected through joins and added to every group key.
    const bool batched = options_.batched;
    const std::string b_sel = batched ? "A.BatchID AS BatchID, " : "";

    if (options_.prejoin == PreJoinStrategy::kNone) {
      const std::string map_table = out_.prefix + "_" + tag + "_map";
      const std::string kernel_table = out_.prefix + "_" + tag + "_kernel";
      DL2SQL_RETURN_NOT_OK(Deploy(map_table, GenerateMappingTable(g), "TupleID"));
      DL2SQL_RETURN_NOT_OK(Deploy(kernel_table, GenerateKernelTable(weight), "OrderID"));
      const std::string fm_table = out_.prefix + "_" + tag + "_fm";
      // Q2: reshape the flat activation into conv windows.
      sql.push_back("CREATE TEMP TABLE " + fm_table + " AS SELECT " + b_sel +
                    "B.MatrixID AS MatrixID, B.OrderID AS OrderID, "
                    "A.Value AS Value FROM " +
                    in + " A, " + map_table + " B WHERE A.TupleID = B.TupleID");
      // Q1: inner join with the kernel table + group-by. The batched variant
      // groups on (BatchID, flattened output id) so the executor's two-int
      // group fast path applies; the single-image form keeps the paper's
      // (KernelID, MatrixID) keys verbatim.
      if (batched) {
        const std::string flat = "B.KernelID * " + std::to_string(out_plane) +
                                 " + A.MatrixID";
        std::string inner = "SELECT A.BatchID AS BatchID, " + flat +
                            " AS TupleID, sum(A.Value * B.Value) AS Value "
                            "FROM " +
                            fm_table + " A INNER JOIN " + kernel_table +
                            " B ON A.OrderID = B.OrderID GROUP BY A.BatchID, " +
                            flat;
        if (bias != nullptr) {
          sql.push_back("CREATE TEMP TABLE " + out_table +
                        " AS SELECT t.BatchID AS BatchID, t.TupleID AS "
                        "TupleID, t.Value + b.Bias AS Value FROM (" +
                        inner + ") t, " + bias_table +
                        " b WHERE intDiv(t.TupleID, " +
                        std::to_string(out_plane) + ") = b.KernelID");
        } else {
          sql.push_back("CREATE TEMP TABLE " + out_table + " AS " + inner);
        }
      } else {
        std::string inner =
            "SELECT B.KernelID AS KernelID, A.MatrixID AS MatrixID, "
            "sum(A.Value * B.Value) AS Value FROM " +
            fm_table + " A INNER JOIN " + kernel_table +
            " B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID";
        if (bias != nullptr) {
          sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " +
                        "t.KernelID * " + std::to_string(out_plane) +
                        " + t.MatrixID AS TupleID, t.Value + b.Bias AS Value "
                        "FROM (" +
                        inner + ") t, " + bias_table +
                        " b WHERE t.KernelID = b.KernelID");
        } else {
          sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " +
                        "t.KernelID * " + std::to_string(out_plane) +
                        " + t.MatrixID AS TupleID, t.Value AS Value FROM (" +
                        inner + ") t");
        }
      }
    } else {
      // Pre-joined strategy: a single join against the fused mapping*kernel
      // table (flattened output ids precomputed offline); no reshape
      // statement and a single-integer group key (plus BatchID in batch
      // mode).
      PreJoinedConv conv;
      conv.op_index = out_.ops.size();
      conv.in = in;
      conv.pjk_table = out_.prefix + "_" + tag + "_pjk";
      conv.bias_table = bias_table;
      conv.has_bias = bias != nullptr;
      conv.out_table = out_table;
      conv.geom = g;
      DL2SQL_RETURN_NOT_OK(Deploy(conv.pjk_table,
                                  GeneratePreJoinedKernel(g, weight), "TupleID"));
      sql.push_back(PreJoinedConvSql(conv));
      last_prejoined_conv_ = std::move(conv);
    }
    Emit(layer, std::move(sql), out_table, g);
    return out_table;
  }

  Result<std::string> ConvertConv(const nn::Conv2d& conv, const std::string& in,
                                  const Shape& in_shape,
                                  const Shape& out_shape) {
    LayerGeometry g;
    g.in_c = in_shape[0];
    g.in_h = in_shape[1];
    g.in_w = in_shape[2];
    g.out_c = out_shape[0];
    g.out_h = out_shape[1];
    g.out_w = out_shape[2];
    g.kernel = conv.kernel_h();
    g.stride = conv.stride();
    g.pad = conv.pad();
    const Tensor* bias = conv.bias() ? &*conv.bias() : nullptr;
    return EmitConvSql(conv, in, g, conv.weight(), bias);
  }

  Result<std::string> ConvertBn(const nn::BatchNorm& bn, const std::string& in,
                                const Shape& in_shape) {
    const std::string tag = "bn" + std::to_string(op_id_);
    const std::string out_table = out_.prefix + "_" + tag + "_out";
    const int64_t plane =
        in_shape.ndim() == 3 ? in_shape[1] * in_shape[2] : 1;
    std::vector<std::string> sql;

    if (options_.bn_mode == BnSqlMode::kPaperBatchStats) {
      if (options_.batched) {
        // Per-image statistics via a grouped self-join (scalar subqueries
        // cannot vary per batch element).
        sql.push_back("CREATE TEMP TABLE " + out_table +
                      " AS SELECT A.BatchID AS BatchID, A.TupleID AS TupleID, "
                      "((A.Value - B.mu) / (B.sd + 0.00005)) AS Value FROM " +
                      in +
                      " A, (SELECT BatchID, avg(Value) AS mu, "
                      "stddevSamp(Value) AS sd FROM " +
                      in + " GROUP BY BatchID) B WHERE A.BatchID = B.BatchID");
      } else {
        // Q4's formula, verbatim semantics.
        sql.push_back("CREATE TEMP TABLE " + out_table +
                      " AS SELECT TupleID, ((Value - (SELECT avg(Value) FROM " +
                      in + ")) / ((SELECT stddevSamp(Value) FROM " + in +
                      ") + 0.00005)) AS Value FROM " + in);
      }
      Emit(bn, std::move(sql), out_table, {});
      return out_table;
    }

    if (options_.prejoin == PreJoinStrategy::kPreJoinFull &&
        !out_.ops.empty() && out_.ops.back().kind == LayerKind::kConv2d) {
      // Fold BN into the preceding conv: rebuild its pre-joined table with
      // scaled weights and adjusted bias, drop the BN statement entirely.
      DL2SQL_RETURN_NOT_OK(FoldBnIntoPreviousConv(bn));
      const std::string conv_out = out_.ops.back().output_table;
      Emit(bn, {}, conv_out, {});
      // Output table unchanged: the conv output is already normalized.
      return conv_out;
    }

    const std::string bn_table = out_.prefix + "_" + tag + "_params";
    DL2SQL_RETURN_NOT_OK(Deploy(bn_table, MakeBnTable(bn)));
    const std::string b_sel = options_.batched ? "A.BatchID AS BatchID, " : "";
    sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " + b_sel +
                  "A.TupleID AS TupleID, A.Value * B.Scale + "
                  "B.Shift AS Value FROM " +
                  in + " A, " + bn_table + " B WHERE intDiv(A.TupleID, " +
                  std::to_string(plane) + ") = B.ChannelID");
    Emit(bn, std::move(sql), out_table, {});
    return out_table;
  }

  /// Rewrites the most recent conv op's static tables with BN folded in:
  /// weights scale per output channel, and the bias becomes bias * scale +
  /// shift. A conv without a bias gets a bias table holding the shift.
  Status FoldBnIntoPreviousConv(const nn::BatchNorm& bn) {
    PreJoinedConv& conv = last_prejoined_conv_;
    if (conv.pjk_table.empty() || conv.op_index + 1 != out_.ops.size()) {
      return Status::InternalError("BN folding requires a pre-joined conv");
    }
    const LayerGeometry& g = conv.geom;
    DL2SQL_ASSIGN_OR_RETURN(db::TablePtr pjk,
                            db_->catalog().GetTable(conv.pjk_table));
    // Folding rewrites columns in place, so a paged parameter table must be
    // resident first (it re-pages on the next DML sync if still large).
    DL2SQL_RETURN_NOT_OK(pjk->EnsureResident());
    std::vector<double> scale(static_cast<size_t>(g.out_c));
    std::vector<double> shift(static_cast<size_t>(g.out_c));
    for (int64_t c = 0; c < g.out_c; ++c) {
      const double s = static_cast<double>(bn.gamma().at(c)) /
                       std::sqrt(static_cast<double>(bn.running_var().at(c)) +
                                 bn.eps());
      scale[static_cast<size_t>(c)] = s;
      shift[static_cast<size_t>(c)] = static_cast<double>(bn.beta().at(c)) -
                                      static_cast<double>(bn.running_mean().at(c)) * s;
    }
    {
      const int64_t out_plane = g.out_h * g.out_w;
      const auto& out_ids = pjk->column(0).ints();  // OutTupleID
      auto& weights = pjk->mutable_column(2).mutable_floats();
      for (size_t r = 0; r < weights.size(); ++r) {
        weights[r] *= scale[static_cast<size_t>(out_ids[r] / out_plane)];
      }
    }
    if (!conv.has_bias) {
      DL2SQL_RETURN_NOT_OK(Deploy(conv.bias_table, MakeBiasTable(shift)));
      conv.has_bias = true;
      out_.ops[conv.op_index].runtime_sql = {PreJoinedConvSql(conv)};
      return Status::OK();
    }
    DL2SQL_ASSIGN_OR_RETURN(db::TablePtr bias_t,
                            db_->catalog().GetTable(conv.bias_table));
    DL2SQL_RETURN_NOT_OK(bias_t->EnsureResident());
    const auto& ids = bias_t->column(0).ints();
    auto& biases = bias_t->mutable_column(1).mutable_floats();
    for (size_t r = 0; r < biases.size(); ++r) {
      const size_t c = static_cast<size_t>(ids[r]);
      biases[r] = biases[r] * scale[c] + shift[c];
    }
    return Status::OK();
  }

  /// Instance norm: per-channel statistics of the *current* activation,
  /// computed by a grouped aggregation and joined back — Table II lists it
  /// as Supported. stddevSamp is corrected to the population variance the
  /// operator defines (the spatial plane size is a compile-time constant).
  Result<std::string> ConvertInstanceNorm(const nn::InstanceNorm& inorm,
                                          const std::string& in,
                                          const Shape& in_shape) {
    if (in_shape.ndim() != 3) {
      return Status::InvalidArgument("InstanceNorm translation requires a ",
                                     "CHW activation");
    }
    const std::string tag = "inorm" + std::to_string(op_id_);
    const std::string stats_table = out_.prefix + "_" + tag + "_stats";
    const std::string params_table = out_.prefix + "_" + tag + "_params";
    const std::string out_table = out_.prefix + "_" + tag + "_out";
    const int64_t plane = in_shape[1] * in_shape[2];

    // Per-channel affine parameters (gamma, beta).
    {
      const auto params = inorm.Parameters();
      const Tensor& gamma = params[0].tensor;
      const Tensor& beta = params[1].tensor;
      std::vector<int64_t> channels;
      std::vector<double> gammas, betas;
      for (int64_t c = 0; c < gamma.NumElements(); ++c) {
        channels.push_back(c);
        gammas.push_back(static_cast<double>(gamma.at(c)));
        betas.push_back(static_cast<double>(beta.at(c)));
      }
      TableSchema schema({{"ChannelID", DataType::kInt64},
                          {"Gamma", DataType::kFloat64},
                          {"Beta", DataType::kFloat64}});
      DL2SQL_ASSIGN_OR_RETURN(
          Table t, Table::FromColumns(schema,
                                      {Column::Ints(std::move(channels)),
                                       Column::Floats(std::move(gammas)),
                                       Column::Floats(std::move(betas))}));
      DL2SQL_RETURN_NOT_OK(Deploy(params_table, std::move(t), "ChannelID"));
    }

    // stddevSamp^2 * (n-1)/n = population variance over the plane.
    const std::string var_correction =
        "(B.sd * B.sd * " +
        std::to_string(static_cast<double>(plane - 1) /
                       static_cast<double>(plane)) +
        " + " + std::to_string(static_cast<double>(inorm.eps())) + ")";
    const std::string chan = "intDiv(TupleID, " + std::to_string(plane) + ")";
    const std::string b_sel = options_.batched ? "BatchID, " : "";
    const std::string b_a_sel = options_.batched ? "A.BatchID AS BatchID, " : "";
    const std::string b_join =
        options_.batched ? "A.BatchID = B.BatchID AND " : "";

    std::vector<std::string> sql;
    sql.push_back("CREATE TEMP TABLE " + stats_table + " AS SELECT " + b_sel +
                  chan +
                  " AS ChannelID, avg(Value) AS mu, stddevSamp(Value) "
                  "AS sd FROM " +
                  in + " GROUP BY " + b_sel + chan);
    sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " + b_a_sel +
                  "A.TupleID AS TupleID, ((A.Value - B.mu) / sqrt" +
                  var_correction + ") * C.Gamma + C.Beta AS Value FROM " + in +
                  " A, " + stats_table + " B, " + params_table + " C WHERE " +
                  b_join + "intDiv(A.TupleID, " + std::to_string(plane) +
                  ") = B.ChannelID AND B.ChannelID = C.ChannelID");
    Emit(inorm, std::move(sql), out_table, {});
    return out_table;
  }

  Result<std::string> ConvertRelu(const Layer& layer, const std::string& in) {
    const std::string out_table =
        out_.prefix + "_relu" + std::to_string(op_id_) + "_out";
    const std::string cols = options_.batched ? "BatchID, TupleID" : "TupleID";
    std::vector<std::string> sql;
    if (options_.relu_as_update) {
      // Q5 style: copy then clamp in place.
      sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " + cols +
                    ", Value FROM " + in);
      sql.push_back("UPDATE " + out_table + " SET Value = 0 WHERE Value < 0");
    } else {
      sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " + cols +
                    ", greatest(0.0, Value) AS Value FROM " + in);
    }
    Emit(layer, std::move(sql), out_table, {});
    return out_table;
  }

  Result<std::string> ConvertPool(const Layer& layer, const std::string& in,
                                  const Shape& in_shape,
                                  const Shape& out_shape) {
    const bool is_max = layer.kind() == LayerKind::kMaxPool;
    const int64_t window = is_max
                               ? static_cast<const nn::MaxPool2d&>(layer).window()
                               : static_cast<const nn::AvgPool2d&>(layer).window();
    const int64_t stride = is_max
                               ? static_cast<const nn::MaxPool2d&>(layer).stride()
                               : static_cast<const nn::AvgPool2d&>(layer).stride();
    const std::string tag = "pool" + std::to_string(op_id_);
    const std::string map_table = out_.prefix + "_" + tag + "_map";
    const std::string out_table = out_.prefix + "_" + tag + "_out";
    DL2SQL_RETURN_NOT_OK(Deploy(
        map_table,
        GeneratePoolingMap(in_shape[0], in_shape[1], in_shape[2], window,
                           stride),
        "TupleID"));
    // Q3: windowed aggregation via the pooling map.
    const std::string b_sel = options_.batched ? "A.BatchID AS BatchID, " : "";
    const std::string b_group = options_.batched ? "A.BatchID, " : "";
    std::vector<std::string> sql;
    sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " + b_sel +
                  "B.MatrixID AS TupleID, " +
                  (is_max ? std::string("max") : std::string("avg")) +
                  "(A.Value) AS Value FROM " + in + " A, " + map_table +
                  " B WHERE A.TupleID = B.TupleID GROUP BY " + b_group +
                  "B.MatrixID");
    LayerGeometry g;
    g.in_c = in_shape[0];
    g.in_h = in_shape[1];
    g.in_w = in_shape[2];
    g.out_c = out_shape[0];
    g.out_h = out_shape[1];
    g.out_w = out_shape[2];
    g.kernel = window;
    g.stride = stride;
    Emit(layer, std::move(sql), out_table, g);
    return out_table;
  }

  Result<std::string> ConvertGlobalPool(const Layer& layer,
                                        const std::string& in,
                                        const Shape& in_shape) {
    const std::string out_table =
        out_.prefix + "_gap" + std::to_string(op_id_) + "_out";
    const int64_t plane = in_shape[1] * in_shape[2];
    const std::string b_sel = options_.batched ? "BatchID, " : "";
    std::vector<std::string> sql;
    sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " + b_sel +
                  "intDiv(TupleID, " + std::to_string(plane) +
                  ") AS TupleID, avg(Value) AS Value FROM " + in +
                  " GROUP BY " + b_sel + "intDiv(TupleID, " +
                  std::to_string(plane) + ")");
    Emit(layer, std::move(sql), out_table, {});
    return out_table;
  }

  Result<std::string> ConvertLinear(const nn::Linear& fc, const std::string& in) {
    const std::string tag = "fc" + std::to_string(op_id_);
    const std::string w_table = out_.prefix + "_" + tag + "_w";
    const std::string out_table = out_.prefix + "_" + tag + "_out";
    DL2SQL_RETURN_NOT_OK(Deploy(w_table, MakeFcWeightTable(fc.weight()), "ColID"));
    const std::string b_sel = options_.batched ? "A.BatchID AS BatchID, " : "";
    const std::string b_t_sel = options_.batched ? "t.BatchID AS BatchID, " : "";
    const std::string b_group = options_.batched ? "A.BatchID, " : "";
    std::string inner = "SELECT " + b_sel +
                        "B.RowID AS RowID, sum(A.Value * B.Value) AS "
                        "Value FROM " +
                        in + " A, " + w_table +
                        " B WHERE A.TupleID = B.ColID GROUP BY " + b_group +
                        "B.RowID";
    std::vector<std::string> sql;
    if (fc.bias()) {
      const std::string b_table = out_.prefix + "_" + tag + "_b";
      DL2SQL_RETURN_NOT_OK(Deploy(b_table, MakeBiasTable(ToDoubles(*fc.bias()))));
      sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " + b_t_sel +
                    "t.RowID AS TupleID, t.Value + b.Bias AS Value "
                    "FROM (" +
                    inner + ") t, " + b_table + " b WHERE t.RowID = b.KernelID");
    } else {
      sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " + b_t_sel +
                    "t.RowID AS TupleID, t.Value AS Value FROM (" + inner +
                    ") t");
    }
    Emit(fc, std::move(sql), out_table, {});
    return out_table;
  }

  /// Softmax statements: scalar subqueries in single mode, grouped
  /// per-BatchID joins in batch mode.
  std::vector<std::string> MakeSoftmaxSql(const std::string& in,
                                          const std::string& exp_table,
                                          const std::string& out_table) const {
    std::vector<std::string> sql;
    if (options_.batched) {
      sql.push_back("CREATE TEMP TABLE " + exp_table +
                    " AS SELECT A.BatchID AS BatchID, A.TupleID AS TupleID, "
                    "exp(A.Value - B.M) AS Value FROM " +
                    in + " A, (SELECT BatchID, max(Value) AS M FROM " + in +
                    " GROUP BY BatchID) B WHERE A.BatchID = B.BatchID");
      sql.push_back("CREATE TEMP TABLE " + out_table +
                    " AS SELECT A.BatchID AS BatchID, A.TupleID AS TupleID, "
                    "A.Value / B.S AS Value FROM " +
                    exp_table + " A, (SELECT BatchID, sum(Value) AS S FROM " +
                    exp_table + " GROUP BY BatchID) B WHERE A.BatchID = "
                    "B.BatchID");
    } else {
      sql.push_back("CREATE TEMP TABLE " + exp_table +
                    " AS SELECT TupleID, exp(Value - (SELECT max(Value) FROM " +
                    in + ")) AS Value FROM " + in);
      sql.push_back("CREATE TEMP TABLE " + out_table +
                    " AS SELECT TupleID, Value / (SELECT sum(Value) FROM " +
                    exp_table + ") AS Value FROM " + exp_table);
    }
    return sql;
  }

  Result<std::string> ConvertSoftmax(const Layer& layer, const std::string& in) {
    const std::string tag = "sm" + std::to_string(op_id_);
    const std::string exp_table = out_.prefix + "_" + tag + "_exp";
    const std::string out_table = out_.prefix + "_" + tag + "_out";
    Emit(layer, MakeSoftmaxSql(in, exp_table, out_table), out_table, {});
    return out_table;
  }

  /// Runs a child-layer sequence starting from `in`; returns the last table.
  Result<std::string> ConvertSequence(const std::vector<nn::LayerPtr>& layers,
                                      const std::string& in, Shape* shape) {
    std::string cur = in;
    for (const auto& l : layers) {
      DL2SQL_ASSIGN_OR_RETURN(cur, ConvertLayer(*l, cur, shape));
    }
    return cur;
  }

  Result<std::string> ConvertResidual(const nn::ResidualBlock& block,
                                      const std::string& in,
                                      const Shape& in_shape) {
    Shape main_shape = in_shape;
    DL2SQL_ASSIGN_OR_RETURN(std::string main_out,
                            ConvertSequence(block.main_path(), in, &main_shape));
    Shape sc_shape = in_shape;
    DL2SQL_ASSIGN_OR_RETURN(std::string sc_out,
                            ConvertSequence(block.shortcut(), in, &sc_shape));
    ++op_id_;
    const std::string out_table =
        out_.prefix + "_res" + std::to_string(op_id_) + "_out";
    std::vector<std::string> sql;
    // Q5: residual link + ReLU.
    sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " +
                  BatchSel("A") +
                  "A.TupleID AS TupleID, greatest(0.0, A.Value + "
                  "B.Value) AS Value FROM " +
                  main_out + " A, " + sc_out + " B WHERE " + BatchJoin() +
                  "A.TupleID = B.TupleID");
    Emit(block, std::move(sql), out_table, {});
    return out_table;
  }

  Result<std::string> ConvertIdentity(const nn::IdentityBlock& block,
                                      const std::string& in,
                                      const Shape& in_shape) {
    Shape main_shape = in_shape;
    DL2SQL_ASSIGN_OR_RETURN(std::string main_out,
                            ConvertSequence(block.main_path(), in, &main_shape));
    ++op_id_;
    const std::string out_table =
        out_.prefix + "_idn" + std::to_string(op_id_) + "_out";
    std::vector<std::string> sql;
    sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " +
                  BatchSel("A") +
                  "A.TupleID AS TupleID, greatest(0.0, A.Value + "
                  "B.Value) AS Value FROM " +
                  main_out + " A, " + in + " B WHERE " + BatchJoin() +
                  "A.TupleID = B.TupleID");
    Emit(block, std::move(sql), out_table, {});
    return out_table;
  }

  /// "A.BatchID AS BatchID, " in batch mode, empty otherwise.
  std::string BatchSel(const std::string& alias) const {
    return options_.batched ? alias + ".BatchID AS BatchID, " : "";
  }
  /// "A.BatchID = B.BatchID AND " in batch mode, empty otherwise.
  std::string BatchJoin() const {
    return options_.batched ? "A.BatchID = B.BatchID AND " : "";
  }

  Result<std::string> ConvertDense(const nn::DenseBlock& block,
                                   const std::string& in,
                                   const Shape& in_shape) {
    // Stages are (conv, bn, relu) triples over growing concatenations.
    const auto children = block.Children();
    if (children.size() % 3 != 0) {
      return Status::InternalError("dense block structure unexpected");
    }
    std::vector<std::string> feats{in};
    std::vector<int64_t> feat_sizes{in_shape.NumElements()};
    const int64_t plane = in_shape[1] * in_shape[2];
    Shape concat_shape = in_shape;
    std::string concat = in;

    for (size_t s = 0; s * 3 < children.size(); ++s) {
      if (s > 0 || feats.size() > 1) {
        // Build the concatenation table by offset inserts.
        ++op_id_;
        concat = out_.prefix + "_cat" + std::to_string(op_id_);
        const std::string cols =
            options_.batched ? "BatchID, TupleID" : "TupleID";
        const std::string off_cols = options_.batched ? "BatchID, " : "";
        std::vector<std::string> sql;
        sql.push_back("CREATE TEMP TABLE " + concat + " AS SELECT " + cols +
                      ", Value FROM " + feats[0]);
        int64_t offset = feat_sizes[0];
        for (size_t f = 1; f < feats.size(); ++f) {
          sql.push_back("INSERT INTO " + concat + " SELECT " + off_cols +
                        "TupleID + " + std::to_string(offset) +
                        " AS TupleID, Value FROM " + feats[f]);
          offset += feat_sizes[f];
        }
        ConvertedOp op;
        op.kind = LayerKind::kDenseBlock;
        op.layer_name = block.name() + ".concat" + std::to_string(s);
        op.runtime_sql = std::move(sql);
        op.output_table = concat;
        out_.ops.push_back(std::move(op));
        concat_shape = Shape({offset / plane, in_shape[1], in_shape[2]});
      }
      Shape stage_shape = concat_shape;
      std::vector<nn::LayerPtr> stage;
      // Children are raw pointers; wrap them in non-owning shared_ptrs for
      // ConvertSequence.
      for (size_t i = 0; i < 3; ++i) {
        const Layer* l = children[s * 3 + i];
        stage.push_back(nn::LayerPtr(nn::LayerPtr{}, const_cast<Layer*>(l)));
      }
      DL2SQL_ASSIGN_OR_RETURN(std::string stage_out,
                              ConvertSequence(stage, concat, &stage_shape));
      feats.push_back(stage_out);
      feat_sizes.push_back(stage_shape.NumElements());
    }

    // Final concat of everything.
    ++op_id_;
    const std::string out_table = out_.prefix + "_dense" +
                                  std::to_string(op_id_) + "_out";
    const std::string cols = options_.batched ? "BatchID, TupleID" : "TupleID";
    const std::string off_cols = options_.batched ? "BatchID, " : "";
    std::vector<std::string> sql;
    sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " + cols +
                  ", Value FROM " + feats[0]);
    int64_t offset = feat_sizes[0];
    for (size_t f = 1; f < feats.size(); ++f) {
      sql.push_back("INSERT INTO " + out_table + " SELECT " + off_cols +
                    "TupleID + " + std::to_string(offset) +
                    " AS TupleID, Value FROM " + feats[f]);
      offset += feat_sizes[f];
    }
    Emit(block, std::move(sql), out_table, {});
    return out_table;
  }

  Result<std::string> ConvertAttention(const nn::BasicAttention& attn,
                                       const std::string& in) {
    Shape dummy({attn.attention_proj().in_dim()});
    Shape s1 = dummy;
    DL2SQL_ASSIGN_OR_RETURN(std::string scores,
                            ConvertLayer(attn.attention_proj(), in, &s1));
    DL2SQL_ASSIGN_OR_RETURN(std::string weights,
                            ConvertSoftmaxHelper(scores));
    Shape s2 = dummy;
    DL2SQL_ASSIGN_OR_RETURN(std::string values,
                            ConvertLayer(attn.value_proj(), in, &s2));
    ++op_id_;
    const std::string out_table =
        out_.prefix + "_attn" + std::to_string(op_id_) + "_out";
    std::vector<std::string> sql;
    sql.push_back("CREATE TEMP TABLE " + out_table + " AS SELECT " +
                  BatchSel("A") +
                  "A.TupleID AS TupleID, A.Value * B.Value AS Value "
                  "FROM " +
                  weights + " A, " + values + " B WHERE " + BatchJoin() +
                  "A.TupleID = B.TupleID");
    Emit(attn, std::move(sql), out_table, {});
    return out_table;
  }

  Result<std::string> ConvertSoftmaxHelper(const std::string& in) {
    ++op_id_;
    const std::string tag = "smx" + std::to_string(op_id_);
    const std::string exp_table = out_.prefix + "_" + tag + "_exp";
    const std::string out_table = out_.prefix + "_" + tag + "_out";
    ConvertedOp op;
    op.kind = LayerKind::kSoftmax;
    op.layer_name = tag;
    op.runtime_sql = MakeSoftmaxSql(in, exp_table, out_table);
    op.output_table = out_table;
    out_.ops.push_back(std::move(op));
    return out_table;
  }

  Result<std::string> ConvertDeconv(const nn::Deconv2d& deconv,
                                    const std::string& in,
                                    const Shape& in_shape,
                                    const Shape& out_shape) {
    // Transposed conv == zero-stuffed upsample + stride-1 conv with the
    // spatially flipped, channel-transposed kernel.
    const int64_t k = deconv.weight().shape()[2];
    const int64_t s = deconv.stride();
    const int64_t p = deconv.pad();
    const int64_t in_c = in_shape[0];
    const int64_t up_h = (in_shape[1] - 1) * s + 1;
    const int64_t up_w = (in_shape[2] - 1) * s + 1;

    // Upsample map: (NewTupleID, OldTupleID); zero positions are absent.
    std::vector<int64_t> new_ids, old_ids;
    for (int64_t c = 0; c < in_c; ++c) {
      for (int64_t y = 0; y < in_shape[1]; ++y) {
        for (int64_t x = 0; x < in_shape[2]; ++x) {
          new_ids.push_back((c * up_h + y * s) * up_w + x * s);
          old_ids.push_back((c * in_shape[1] + y) * in_shape[2] + x);
        }
      }
    }
    TableSchema up_schema(
        {{"NewID", DataType::kInt64}, {"OldID", DataType::kInt64}});
    DL2SQL_ASSIGN_OR_RETURN(
        Table up_map,
        Table::FromColumns(up_schema, {Column::Ints(std::move(new_ids)),
                                       Column::Ints(std::move(old_ids))}));
    const std::string tag = "deconv" + std::to_string(op_id_);
    const std::string up_table_name = out_.prefix + "_" + tag + "_upmap";
    DL2SQL_RETURN_NOT_OK(Deploy(up_table_name, std::move(up_map), "OldID"));
    const std::string up_out = out_.prefix + "_" + tag + "_up";
    std::vector<std::string> sql;
    sql.push_back("CREATE TEMP TABLE " + up_out + " AS SELECT " +
                  BatchSel("A") + "B.NewID AS TupleID, A.Value AS Value FROM " +
                  in + " A, " + up_table_name + " B WHERE A.TupleID = B.OldID");
    ConvertedOp up_op;
    up_op.kind = LayerKind::kDeconv2d;
    up_op.layer_name = deconv.name() + ".upsample";
    up_op.runtime_sql = std::move(sql);
    up_op.output_table = up_out;
    out_.ops.push_back(std::move(up_op));

    // Flipped kernel.
    const int64_t out_c = deconv.weight().shape()[0];
    Tensor flipped(Shape({out_c, in_c, k, k}));
    for (int64_t oc = 0; oc < out_c; ++oc) {
      for (int64_t ic = 0; ic < in_c; ++ic) {
        for (int64_t i = 0; i < k; ++i) {
          for (int64_t j = 0; j < k; ++j) {
            flipped.at((((oc * in_c) + ic) * k + i) * k + j) = deconv.weight().at(
                (((oc * in_c) + ic) * k + (k - 1 - i)) * k + (k - 1 - j));
          }
        }
      }
    }
    LayerGeometry g;
    g.in_c = in_c;
    g.in_h = up_h;
    g.in_w = up_w;
    g.out_c = out_shape[0];
    g.out_h = out_shape[1];
    g.out_w = out_shape[2];
    g.kernel = k;
    g.stride = 1;
    g.pad = k - 1 - p;
    ++op_id_;
    const auto params = deconv.Parameters();
    const Tensor* bias = params.size() > 1 ? &params[1].tensor : nullptr;
    return EmitConvSql(deconv, up_out, g, flipped, bias);
  }

  /// The pre-joined conv most recently emitted, which a following BN folds
  /// into.
  PreJoinedConv last_prejoined_conv_;
};

}  // namespace

std::vector<std::string> ConvertedModel::RuntimeTables() const {
  std::vector<std::string> tables{input_table};
  for (const auto& op : ops) {
    for (const auto& stmt : op.runtime_sql) {
      // Every runtime statement that creates a table names it right after
      // "CREATE TEMP TABLE ".
      static const std::string kPrefix = "CREATE TEMP TABLE ";
      if (stmt.compare(0, kPrefix.size(), kPrefix) == 0) {
        const size_t start = kPrefix.size();
        const size_t end = stmt.find(' ', start);
        tables.push_back(stmt.substr(start, end - start));
      }
    }
  }
  return tables;
}

int64_t ConvertedModel::WidestTableRows() const {
  int64_t widest = input_shape.NumElements();
  for (const auto& op : ops) {
    const LayerGeometry& g = op.geom;
    widest = std::max({widest, g.out_c * g.out_h * g.out_w,
                       g.out_h * g.out_w * g.in_c * g.kernel * g.kernel});
  }
  return widest;
}

Result<ConvertedModel> ConvertModel(const nn::Model& model,
                                    const ConvertOptions& options,
                                    db::Database* db) {
  Converter converter(options, db);
  return converter.Run(model);
}

Result<uint64_t> StaticStorageBytes(const ConvertedModel& model,
                                    const db::Database& db, bool compressed) {
  uint64_t bytes = 0;
  for (const auto& name : model.static_tables) {
    DL2SQL_ASSIGN_OR_RETURN(db::TablePtr t, db.catalog().GetTable(name));
    if (compressed) {
      DL2SQL_ASSIGN_OR_RETURN(uint64_t b, db::CompressedTableBytes(*t));
      bytes += b;
    } else {
      bytes += t->ByteSize();
    }
  }
  return bytes;
}

}  // namespace dl2sql::core
