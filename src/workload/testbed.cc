#include "workload/testbed.h"

namespace dl2sql::workload {

using engines::CollaborativeEngine;
using engines::ModelDeployment;
using engines::NUdfOutput;
using engines::QueryCost;

nn::Model BuildRepositoryModel(const TestbedOptions& options,
                               int64_t num_classes, uint64_t seed) {
  nn::BuilderOptions b;
  b.input_channels = options.dataset.keyframe_channels;
  b.input_size = options.dataset.keyframe_size;
  b.num_classes = num_classes;
  b.base_channels = options.model_base_channels;
  b.seed = seed;
  if (options.resnet_depth > 0) {
    auto m = nn::BuildResNet(options.resnet_depth, b);
    DL2SQL_CHECK(m.ok()) << m.status().ToString();
    return std::move(m).ValueOrDie();
  }
  return nn::BuildStudentCnn(b);
}

Status Testbed::DeployAll(const nn::Model& model, const std::string& udf_name,
                          NUdfOutput output) {
  DL2SQL_ASSIGN_OR_RETURN(
      db::NUdfSelectivity sel,
      engines::LearnSelectivityHistogram(model, output, device_.get(),
                                         options_.histogram_samples,
                                         options_.model_seed ^ 0x5eed));
  ModelDeployment deployment;
  deployment.udf_name = udf_name;
  deployment.output = output;
  deployment.selectivity = sel;
  for (CollaborativeEngine* e : AllEngines()) {
    DL2SQL_RETURN_NOT_OK(e->DeployModel(model, deployment));
  }
  return Status::OK();
}

Result<std::unique_ptr<Testbed>> Testbed::Create(const TestbedOptions& options) {
  std::unique_ptr<Testbed> tb(new Testbed());
  tb->options_ = options;
  tb->device_ = Device::Create(options.device);

  DL2SQL_RETURN_NOT_OK(PopulateDatabase(&tb->master_db_, options.dataset));

  tb->independent_ =
      std::make_unique<engines::IndependentEngine>(tb->device_);
  tb->udf_ = std::make_unique<engines::UdfEngine>(tb->device_);
  engines::Dl2SqlEngine::Options plain;
  plain.enable_optimizer_hints = false;
  tb->dl2sql_ = std::make_unique<engines::Dl2SqlEngine>(tb->device_, plain);
  // DL2SQL-OP also runs Fig. 11's full pre-join: each conv is one join with
  // a mapping x kernel table whose weights hold the folded BatchNorm, so it
  // issues no Q2 reshape and no BN statement. Plain DL2SQL keeps Q1-Q5.
  engines::Dl2SqlEngine::Options op;
  op.enable_optimizer_hints = true;
  op.convert.prejoin = core::PreJoinStrategy::kPreJoinFull;
  tb->dl2sql_op_ = std::make_unique<engines::Dl2SqlEngine>(tb->device_, op);

  for (CollaborativeEngine* e : tb->AllEngines()) {
    DL2SQL_RETURN_NOT_OK(e->AttachTablesFrom(tb->master_db_));
  }

  tb->detect_model_ = std::make_unique<nn::Model>(
      BuildRepositoryModel(options, 2, options.model_seed + 1));
  tb->classify_model_ = std::make_unique<nn::Model>(
      BuildRepositoryModel(options, 10, options.model_seed + 2));
  tb->recog_model_ = std::make_unique<nn::Model>(BuildRepositoryModel(
      options, options.dataset.num_patterns, options.model_seed + 3));

  DL2SQL_RETURN_NOT_OK(
      tb->DeployAll(*tb->detect_model_, "nUDF_detect", NUdfOutput::kBool));
  DL2SQL_RETURN_NOT_OK(
      tb->DeployAll(*tb->classify_model_, "nUDF_classify", NUdfOutput::kLabel));
  DL2SQL_RETURN_NOT_OK(
      tb->DeployAll(*tb->recog_model_, "nUDF_recog", NUdfOutput::kClassId));

  if (options.full_repository) {
    ModelRepoOptions repo_opts;
    repo_opts.num_tasks = options.repository_tasks;
    repo_opts.input_channels = options.dataset.keyframe_channels;
    repo_opts.input_size = options.dataset.keyframe_size;
    repo_opts.base_channels = options.model_base_channels;
    repo_opts.num_patterns = options.dataset.num_patterns;
    repo_opts.seed = options.model_seed;
    tb->repository_ = BuildModelRepository(repo_opts);
    for (CollaborativeEngine* e : tb->AllEngines()) {
      DL2SQL_RETURN_NOT_OK(DeployRepository(tb->repository_, e,
                                            tb->device_.get(),
                                            options.histogram_samples,
                                            options.model_seed ^ 0xfeed));
    }
  }
  return tb;
}

std::vector<CollaborativeEngine*> Testbed::AllEngines() {
  return {dl2sql_.get(), dl2sql_op_.get(), udf_.get(), independent_.get()};
}

namespace {

/// Picks the udf names for one query; with a full repository deployed, each
/// query draws a random task of the right kind, as in the paper's benchmark.
QueryParams PickParams(const std::vector<RepositoryTask>& repo,
                       double selectivity, Rng* rng) {
  QueryParams params;
  params.selectivity = selectivity;
  if (repo.empty() || rng == nullptr) return params;
  std::vector<const RepositoryTask*> detect, classify, recog;
  for (const auto& t : repo) {
    if (t.task_kind == "defect_detection") detect.push_back(&t);
    if (t.task_kind == "clothes_classification") classify.push_back(&t);
    if (t.task_kind == "pattern_recognition") recog.push_back(&t);
  }
  if (!detect.empty()) {
    params.detect_udf =
        detect[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(detect.size()) - 1))]->udf_name;
  }
  if (!classify.empty()) {
    params.classify_udf =
        classify[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(classify.size()) - 1))]->udf_name;
  }
  if (!recog.empty()) {
    params.recog_udf =
        recog[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(recog.size()) - 1))]->udf_name;
  }
  return params;
}

}  // namespace

Result<QueryCost> Testbed::RunMixedWorkload(CollaborativeEngine* engine,
                                            int per_type, double selectivity,
                                            uint64_t seed) {
  Rng rng(seed);
  QueryCost total;
  int n = 0;
  for (int type = 1; type <= 4; ++type) {
    for (int q = 0; q < per_type; ++q) {
      const QueryParams params = PickParams(repository_, selectivity, &rng);
      const std::string sql = MakeQueryOfType(type, params, &rng);
      QueryCost cost;
      DL2SQL_RETURN_NOT_OK(
          engine->ExecuteCollaborative(sql, &cost).status());
      total += cost;
      ++n;
    }
  }
  return total / std::max(1, n);
}

Result<QueryCost> Testbed::RunTypeWorkload(CollaborativeEngine* engine,
                                           int type, int count,
                                           double selectivity, uint64_t seed) {
  Rng rng(seed);
  QueryCost total;
  for (int q = 0; q < count; ++q) {
    const QueryParams params = PickParams(repository_, selectivity, &rng);
    const std::string sql = MakeQueryOfType(type, params, &rng);
    QueryCost cost;
    DL2SQL_RETURN_NOT_OK(engine->ExecuteCollaborative(sql, &cost).status());
    total += cost;
  }
  return total / std::max(1, count);
}

}  // namespace dl2sql::workload
