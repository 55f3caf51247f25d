#include "util/csv.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace bagsched::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(const std::string& cell) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back(cell);
  return *this;
}

Table& Table::add(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return add(os.str());
}

Table& Table::add(long long value) { return add(std::to_string(value)); }

void Table::write_aligned(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size(), 0);
  auto widen = [&widths](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
         << cells[i];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace bagsched::util
