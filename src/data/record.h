#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace humo::data {

/// A relational record: attribute values parallel to its table's schema.
struct Record {
  uint32_t id = 0;
  /// Identifier of the real-world entity this record describes; records with
  /// equal entity_id are ground-truth matches. Hidden from the machine side.
  uint32_t entity_id = 0;
  std::vector<std::string> attributes;
};

/// A table of records sharing one schema.
class RecordTable {
 public:
  RecordTable() = default;
  explicit RecordTable(std::vector<std::string> schema)
      : schema_(std::move(schema)) {}

  const std::vector<std::string>& schema() const { return schema_; }
  size_t size() const { return records_.size(); }
  const Record& operator[](size_t i) const { return records_[i]; }
  const std::vector<Record>& records() const { return records_; }

  /// Appends a record; its attribute count must match the schema.
  Status Add(Record r);

 private:
  std::vector<std::string> schema_;
  std::vector<Record> records_;
};

}  // namespace humo::data
