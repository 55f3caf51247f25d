// Aligned-table writer for the human-readable tables the benches and
// examples print.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace bagsched::util {

/// A simple in-memory table: fixed header, rows of stringified cells.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add() calls fill it left to right.
  Table& row();
  Table& add(const std::string& cell);
  Table& add(double value, int precision = 4);
  Table& add(long long value);
  Table& add(int value) { return add(static_cast<long long>(value)); }
  Table& add(std::size_t value) {
    return add(static_cast<long long>(value));
  }

  /// Writes a column-aligned table (human-readable, what the benches print).
  void write_aligned(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bagsched::util
