/// \file ablation_batching.cc
/// \brief Ablation: how many keyframes one batched DL2SQL pipeline run should
/// take. Sweeps fixed sub-batch sizes, the whole batch in one run and the
/// runner's automatic size (Dl2SqlRunner::sub_batch_size) against the
/// per-image pipeline on the fig8 repository model, in the paper's Q1-Q5
/// form (DL2SQL) and pre-joined with BN folded (DL2SQL-OP), and checks that
/// every mode of both predicts the per-image classes. Batching amortizes per-statement
/// parse/plan/materialization, the motivation the paper gives for running
/// nUDFs "in a batch manner"; too large a batch makes every intermediate
/// table (and its hash tables) outgrow the caches.
#include <algorithm>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "dl2sql/pipeline.h"

using namespace dl2sql;          // NOLINT
using namespace dl2sql::bench;   // NOLINT

namespace {

int64_t Argmax(const Tensor& t) {
  int64_t best = 0;
  for (int64_t i = 1; i < t.NumElements(); ++i) {
    if (t.at(i) > t.at(best)) best = i;
  }
  return best;
}

/// Fastest of `reps` runs of `fn`, in seconds.
template <typename Fn>
double MinSeconds(int reps, Fn fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

void PrintRow(const std::string& mode, int64_t sub_batch, int64_t runs,
              double seconds, int64_t images) {
  PrintCell(mode);
  PrintCell(sub_batch);
  PrintCell(runs);
  PrintCell(seconds * 1e3);
  PrintCell(seconds * 1e3 / static_cast<double>(images));
  EndRow();
}

}  // namespace

int main() {
  // One query's nUDF morsel on fig8_edge scores about 110 keyframes.
  const workload::TestbedOptions options = StandardOptions();
  const nn::Model model = workload::BuildRepositoryModel(options, 10, 3);
  const int64_t images = FullScale() ? 256 : 128;
  const int reps = FullScale() ? 5 : 3;
  Rng rng(3);
  std::vector<Tensor> inputs;
  for (int64_t i = 0; i < images; ++i) {
    inputs.push_back(Tensor::Random(model.input_shape(), &rng, 1.0f));
  }

  // Reference: the per-image pipeline (the paper's Q1-Q5 form).
  db::Database per_image_db;
  auto per_image_model = core::ConvertModel(model, {}, &per_image_db);
  BENCH_CHECK_OK(per_image_model.status());
  core::Dl2SqlRunner per_image(&per_image_db,
                               std::move(per_image_model).ValueOrDie());
  std::vector<int64_t> expected(inputs.size());
  const double per_image_seconds = MinSeconds(reps, [&] {
    for (size_t i = 0; i < inputs.size(); ++i) {
      auto pred = per_image.Predict(inputs[i]);
      BENCH_CHECK_OK(pred.status());
      expected[i] = *pred;
    }
  });

  // The batched pipeline in the paper's Q1-Q5 form (DL2SQL) and pre-joined
  // with BN folded (DL2SQL-OP, Fig. 11's prejoin-full).
  const std::pair<const char*, core::PreJoinStrategy> strategies[] = {
      {"Q1-Q5", core::PreJoinStrategy::kNone},
      {"prejoin-full", core::PreJoinStrategy::kPreJoinFull}};
  for (const auto& [label, prejoin] : strategies) {
    db::Database db;
    core::ConvertOptions copts;
    copts.batched = true;
    copts.prejoin = prejoin;
    auto converted = core::ConvertModel(model, copts, &db);
    BENCH_CHECK_OK(converted.status());
    core::Dl2SqlRunner runner(&db, std::move(converted).ValueOrDie());
    const int64_t widest = runner.model().WidestTableRows();
    BENCH_CHECK_OK(runner.InferSubBatch({inputs[0]}).status());  // warm-up

    PrintHeader("Ablation: keyframes per batched DL2SQL pipeline run, " +
                    std::string(label) + " (" + std::to_string(images) +
                    " keyframes, widest table " + std::to_string(widest) +
                    " rows per image, budget " +
                    std::to_string(core::Dl2SqlRunner::kSubBatchRowBudget) +
                    " rows)",
                {"Mode", "SubBatch", "Runs", "Total(ms)", "PerImage(ms)"});
    PrintRow("per-image", 1, images, per_image_seconds, images);

    for (int64_t size : {int64_t{1}, int64_t{8}, int64_t{16}, int64_t{32},
                         int64_t{64}, images}) {
      const double seconds = MinSeconds(reps, [&] {
        for (int64_t begin = 0; begin < images; begin += size) {
          const int64_t end = std::min(images, begin + size);
          auto out = runner.InferSubBatch(
              {inputs.begin() + begin, inputs.begin() + end});
          BENCH_CHECK_OK(out.status());
          for (int64_t i = begin; i < end; ++i) {
            BENCH_CHECK(Argmax((*out)[static_cast<size_t>(i - begin)]) ==
                        expected[static_cast<size_t>(i)]);
          }
        }
      });
      PrintRow(size == images ? "whole batch" : "fixed", size,
               (images + size - 1) / size, seconds, images);
    }

    const int64_t auto_size = runner.sub_batch_size();
    const double auto_seconds = MinSeconds(reps, [&] {
      auto preds = runner.PredictBatch(inputs);
      BENCH_CHECK_OK(preds.status());
      BENCH_CHECK(*preds == expected);
    });
    PrintRow("automatic", auto_size, (images + auto_size - 1) / auto_size,
             auto_seconds, images);
  }
  return 0;
}
