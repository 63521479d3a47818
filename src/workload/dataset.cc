#include "workload/dataset.h"

#include <cstdio>

#include "common/logging.h"
#include "tensor/tensor_blob.h"

namespace dl2sql::workload {

using db::Column;
using db::DataType;
using db::Table;
using db::TableSchema;

namespace {

/// Day index (0..364) to an ISO date string in 2021. The day is checked
/// and narrowed to that range, so both fields provably fit `buf`.
std::string DateString(int64_t day) {
  DL2SQL_CHECK(day >= 0 && day < 365) << "day " << day;
  static const unsigned kDays[] = {31, 28, 31, 30, 31, 30,
                                   31, 31, 30, 31, 30, 31};
  unsigned mday = static_cast<unsigned>(day) % 365;
  int month = 0;
  while (month < 12 && mday >= kDays[month]) {
    mday -= kDays[month];
    ++month;
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2021-%02d-%02u", month + 1, mday + 1);
  return buf;
}

}  // namespace

DatasetSizes ComputeSizes(const DatasetOptions& options) {
  DatasetSizes s;
  s.video = options.video_rows;
  s.fabric = std::max<int64_t>(1, options.video_rows / 10);
  s.client = std::max<int64_t>(1, options.video_rows / 100);
  s.order = std::max<int64_t>(1, options.video_rows / 10);
  s.device = std::max<int64_t>(1, options.video_rows / 100);
  return s;
}

Tensor MakeKeyframe(const DatasetOptions& options, Rng* rng) {
  return Tensor::Random(
      Shape({options.keyframe_channels, options.keyframe_size,
             options.keyframe_size}),
      rng, 1.0f);
}

Status PopulateDatabase(db::Database* db, const DatasetOptions& options) {
  Rng rng(options.seed);
  const DatasetSizes sizes = ComputeSizes(options);

  // ---- fabric ----
  {
    std::vector<int64_t> trans_ids, pattern_ids;
    std::vector<double> meters, humidity, temperature;
    std::vector<std::string> printdates;
    for (int64_t i = 0; i < sizes.fabric; ++i) {
      trans_ids.push_back(i + 1);
      pattern_ids.push_back(rng.UniformInt(0, options.num_patterns - 1));
      meters.push_back(rng.UniformReal(1.0, 100.0));
      humidity.push_back(rng.UniformReal(0.0, 100.0));
      temperature.push_back(rng.UniformReal(0.0, 40.0));
      printdates.push_back(DateString(rng.UniformInt(0, 364)));
    }
    TableSchema schema({{"transID", DataType::kInt64},
                        {"patternID", DataType::kInt64},
                        {"meter", DataType::kFloat64},
                        {"humidity", DataType::kFloat64},
                        {"temperature", DataType::kFloat64},
                        {"printdate", DataType::kString}});
    DL2SQL_ASSIGN_OR_RETURN(
        Table t, Table::FromColumns(
                     schema, {Column::Ints(std::move(trans_ids)),
                              Column::Ints(std::move(pattern_ids)),
                              Column::Floats(std::move(meters)),
                              Column::Floats(std::move(humidity)),
                              Column::Floats(std::move(temperature)),
                              Column::Strings(std::move(printdates))}));
    DL2SQL_RETURN_NOT_OK(db->RegisterTable("fabric", std::move(t)));
  }

  // ---- video (largest, carries keyframe blobs) ----
  {
    std::vector<int64_t> trans_ids;
    std::vector<std::string> dates, keyframes;
    for (int64_t i = 0; i < sizes.video; ++i) {
      trans_ids.push_back(rng.UniformInt(1, sizes.fabric));
      dates.push_back(DateString(rng.UniformInt(0, 364)));
      keyframes.push_back(EncodeTensorBlob(MakeKeyframe(options, &rng)));
    }
    TableSchema schema({{"transID", DataType::kInt64},
                        {"date", DataType::kString},
                        {"keyframe", DataType::kBlob}});
    DL2SQL_ASSIGN_OR_RETURN(
        Table t,
        Table::FromColumns(schema, {Column::Ints(std::move(trans_ids)),
                                    Column::Strings(std::move(dates)),
                                    Column::Blobs(std::move(keyframes))}));
    DL2SQL_RETURN_NOT_OK(db->RegisterTable("video", std::move(t)));
  }

  // ---- client ----
  {
    std::vector<int64_t> client_ids;
    std::vector<std::string> names, regions;
    static const char* kRegions[] = {"east", "west", "north", "south"};
    for (int64_t i = 0; i < sizes.client; ++i) {
      client_ids.push_back(i + 1);
      names.push_back("client_" + std::to_string(i + 1));
      regions.push_back(kRegions[rng.UniformInt(0, 3)]);
    }
    TableSchema schema({{"clientID", DataType::kInt64},
                        {"name", DataType::kString},
                        {"region", DataType::kString}});
    DL2SQL_ASSIGN_OR_RETURN(
        Table t,
        Table::FromColumns(schema, {Column::Ints(std::move(client_ids)),
                                    Column::Strings(std::move(names)),
                                    Column::Strings(std::move(regions))}));
    DL2SQL_RETURN_NOT_OK(db->RegisterTable("client", std::move(t)));
  }

  // ---- order (named "orders": ORDER is a reserved word in the dialect) ----
  {
    std::vector<int64_t> order_ids, client_ids, trans_ids;
    std::vector<double> amounts;
    std::vector<std::string> dates;
    for (int64_t i = 0; i < sizes.order; ++i) {
      order_ids.push_back(i + 1);
      client_ids.push_back(rng.UniformInt(1, sizes.client));
      trans_ids.push_back(rng.UniformInt(1, sizes.fabric));
      amounts.push_back(rng.UniformReal(10.0, 10000.0));
      dates.push_back(DateString(rng.UniformInt(0, 364)));
    }
    TableSchema schema({{"orderID", DataType::kInt64},
                        {"clientID", DataType::kInt64},
                        {"transID", DataType::kInt64},
                        {"amount", DataType::kFloat64},
                        {"orderdate", DataType::kString}});
    DL2SQL_ASSIGN_OR_RETURN(
        Table t,
        Table::FromColumns(schema, {Column::Ints(std::move(order_ids)),
                                    Column::Ints(std::move(client_ids)),
                                    Column::Ints(std::move(trans_ids)),
                                    Column::Floats(std::move(amounts)),
                                    Column::Strings(std::move(dates))}));
    DL2SQL_RETURN_NOT_OK(db->RegisterTable("orders", std::move(t)));
  }

  // ---- device (per-printer sensors) ----
  {
    std::vector<int64_t> device_ids;
    std::vector<std::string> models;
    std::vector<double> temperature, humidity;
    for (int64_t i = 0; i < sizes.device; ++i) {
      device_ids.push_back(i + 1);
      models.push_back("printer_v" + std::to_string(rng.UniformInt(1, 5)));
      temperature.push_back(rng.UniformReal(0.0, 40.0));
      humidity.push_back(rng.UniformReal(0.0, 100.0));
    }
    TableSchema schema({{"deviceID", DataType::kInt64},
                        {"model", DataType::kString},
                        {"temperature", DataType::kFloat64},
                        {"humidity", DataType::kFloat64}});
    DL2SQL_ASSIGN_OR_RETURN(
        Table t,
        Table::FromColumns(schema, {Column::Ints(std::move(device_ids)),
                                    Column::Strings(std::move(models)),
                                    Column::Floats(std::move(temperature)),
                                    Column::Floats(std::move(humidity))}));
    DL2SQL_RETURN_NOT_OK(db->RegisterTable("device", std::move(t)));
  }

  for (const char* name : {"fabric", "video", "client", "orders", "device"}) {
    DL2SQL_RETURN_NOT_OK(db->catalog().Analyze(name));
  }
  return Status::OK();
}

}  // namespace dl2sql::workload
