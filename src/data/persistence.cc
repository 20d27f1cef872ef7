#include "data/persistence.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "common/string_util.h"

namespace humo::data {
namespace {

/// Parses a record id: decimal digits only (no sign, no whitespace), the
/// whole field consumed, value at most UINT32_MAX.
Result<uint32_t> ParseId(const std::string& field, size_t row,
                         const char* column) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(field.c_str(), &end, 10);
  if (field.empty() || !std::isdigit(static_cast<unsigned char>(field[0])) ||
      end != field.c_str() + field.size() || v > UINT32_MAX) {
    return Status::InvalidArgument(
        StrFormat("row %zu: %s '%s' is not an unsigned 32-bit id", row,
                  column, field.c_str()));
  }
  return static_cast<uint32_t>(v);
}

/// Parses a similarity: the whole field consumed, finite, inside [0,1].
Result<double> ParseSimilarity(const std::string& field, size_t row) {
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (field.empty() || end != field.c_str() + field.size() ||
      !std::isfinite(v)) {
    return Status::InvalidArgument(StrFormat(
        "row %zu: similarity '%s' is not a number", row, field.c_str()));
  }
  if (v < 0.0 || v > 1.0) {
    return Status::InvalidArgument(
        StrFormat("row %zu: similarity %.4f outside [0,1]", row, v));
  }
  return v;
}

}  // namespace

std::string WorkloadToCsv(const Workload& workload) {
  CsvDocument doc;
  doc.header = {"left_id", "right_id", "similarity", "label"};
  doc.rows.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const auto& p = workload[i];
    doc.rows.push_back({StrFormat("%u", p.left_id),
                        StrFormat("%u", p.right_id),
                        StrFormat("%.17g", p.similarity),
                        p.is_match ? "1" : "0"});
  }
  return CsvWriter().Serialize(doc);
}

Result<Workload> WorkloadFromCsv(const std::string& text) {
  HUMO_ASSIGN_OR_RETURN(CsvDocument doc, CsvReader().Parse(text));
  const int li = doc.ColumnIndex("left_id");
  const int ri = doc.ColumnIndex("right_id");
  const int si = doc.ColumnIndex("similarity");
  const int la = doc.ColumnIndex("label");
  if (li < 0 || ri < 0 || si < 0 || la < 0) {
    return Status::InvalidArgument(
        "workload CSV needs columns left_id,right_id,similarity,label");
  }
  std::vector<InstancePair> pairs;
  pairs.reserve(doc.rows.size());
  for (size_t r = 0; r < doc.rows.size(); ++r) {
    const auto& row = doc.rows[r];
    InstancePair p;
    HUMO_ASSIGN_OR_RETURN(
        p.left_id, ParseId(row[static_cast<size_t>(li)], r, "left_id"));
    HUMO_ASSIGN_OR_RETURN(
        p.right_id, ParseId(row[static_cast<size_t>(ri)], r, "right_id"));
    HUMO_ASSIGN_OR_RETURN(p.similarity,
                          ParseSimilarity(row[static_cast<size_t>(si)], r));
    const std::string& label = row[static_cast<size_t>(la)];
    if (label != "0" && label != "1") {
      return Status::InvalidArgument(
          StrFormat("row %zu: label must be 0 or 1, got '%s'", r,
                    label.c_str()));
    }
    p.is_match = label == "1";
    pairs.push_back(p);
  }
  return Workload(std::move(pairs));
}

Status SaveWorkloadCsv(const Workload& workload, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open file for write: " + path);
  out << WorkloadToCsv(workload);
  return out ? Status::OK() : Status::IoError("short write: " + path);
}

Result<Workload> LoadWorkloadCsv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return WorkloadFromCsv(ss.str());
}

}  // namespace humo::data
