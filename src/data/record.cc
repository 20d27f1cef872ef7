#include "data/record.h"

#include "common/string_util.h"

namespace humo::data {

Status RecordTable::Add(Record r) {
  if (r.attributes.size() != schema_.size()) {
    return Status::InvalidArgument(
        StrFormat("record has %zu attributes, schema has %zu",
                  r.attributes.size(), schema_.size()));
  }
  records_.push_back(std::move(r));
  return Status::OK();
}

}  // namespace humo::data
