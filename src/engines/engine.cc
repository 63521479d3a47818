#include "engines/engine.h"

#include "common/cache.h"
#include "nn/serialize.h"

namespace dl2sql::engines {

db::DataType ReturnType(NUdfOutput output) {
  switch (output) {
    case NUdfOutput::kBool:
      return db::DataType::kBool;
    case NUdfOutput::kLabel:
      return db::DataType::kString;
    case NUdfOutput::kClassId:
      return db::DataType::kInt64;
  }
  return db::DataType::kNull;
}

db::Value ToValue(NUdfOutput output, const nn::Model& model, int64_t cls) {
  switch (output) {
    case NUdfOutput::kBool:
      return db::Value::Bool(cls == 1);
    case NUdfOutput::kLabel:
      return db::Value::String(model.classes()[static_cast<size_t>(cls)]);
    case NUdfOutput::kClassId:
      return db::Value::Int(cls);
  }
  return db::Value::Null();
}

Result<uint64_t> FamilyFingerprint(const ModelFamilyDeployment& family) {
  // Routing is part of the function: same args through a family whose
  // thresholds moved may pick a different variant, so thresholds and output
  // kind hash in alongside every variant's weights.
  uint64_t h = Hash64(family.udf_name);
  for (const auto& v : family.variants) {
    DL2SQL_ASSIGN_OR_RETURN(uint64_t model_fp, nn::ModelFingerprint(v.model));
    h = HashCombine(h, model_fp);
    h = HashCombine(h, Hash64(&v.humidity_min, sizeof(v.humidity_min)));
    h = HashCombine(h, Hash64(&v.temperature_min, sizeof(v.temperature_min)));
  }
  h = HashCombine(h, static_cast<uint64_t>(family.output));
  return h == 0 ? 1 : h;
}

Status CollaborativeEngine::AttachTablesFrom(const db::Database& source) {
  for (const auto& name : source.catalog().TableNames()) {
    DL2SQL_ASSIGN_OR_RETURN(db::TablePtr t, source.catalog().GetTable(name));
    if (db_.catalog().HasTable(name)) {
      DL2SQL_RETURN_NOT_OK(db_.catalog().DropTable(name, false));
    }
    // Shared TablePtr: all engines see the same physical columns.
    DL2SQL_RETURN_NOT_OK(db_.catalog().CreateTable(name, t, false));
    if (const db::TableStats* stats = source.catalog().GetStats(name)) {
      (void)stats;
      DL2SQL_RETURN_NOT_OK(db_.catalog().Analyze(name));
    }
  }
  return Status::OK();
}

QueryCost CollaborativeEngine::SplitBuckets(const CostAccumulator& acc) {
  QueryCost cost;
  for (const auto& [bucket, secs] : acc.buckets()) {
    if (bucket == "inference") {
      cost.inference_seconds += secs;
    } else if (bucket == "loading") {
      cost.loading_seconds += secs;
    } else {
      cost.relational_seconds += secs;
    }
  }
  return cost;
}

Result<db::NUdfSelectivity> LearnSelectivityHistogram(const nn::Model& model,
                                                      NUdfOutput output,
                                                      Device* device,
                                                      int64_t samples,
                                                      uint64_t seed) {
  Rng rng(seed);
  db::NUdfSelectivity sel;
  for (int64_t s = 0; s < samples; ++s) {
    Tensor input = Tensor::Random(model.input_shape(), &rng, 1.0f);
    DL2SQL_ASSIGN_OR_RETURN(int64_t cls, model.Predict(input, device));
    sel.histogram[ToValue(output, model, cls).ToString()] += 1;
  }
  return sel;
}

}  // namespace dl2sql::engines
