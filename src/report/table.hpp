// Plain-text / markdown tables for the bench harness output: each bench
// binary prints the same rows the paper's table or figure reports.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace fcdpm::report {

/// A titled table of string cells. Rows are padded to the header width.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows()
      const noexcept {
    return rows_;
  }

  /// Append a row; it may have at most as many cells as there are
  /// columns (missing cells render empty).
  void add_row(std::vector<std::string> cells);

  /// Render with aligned ASCII columns.
  [[nodiscard]] std::string to_ascii() const;

  /// Render as a GitHub-markdown table.
  [[nodiscard]] std::string to_markdown() const;

  /// Render as CSV (title as a '#' comment line).
  [[nodiscard]] std::string to_csv() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Cell formatting helpers (thin wrappers over common/text).
[[nodiscard]] std::string cell(double value, int decimals = 3);
[[nodiscard]] std::string percent_cell(double fraction, int decimals = 1);

std::ostream& operator<<(std::ostream& out, const Table& table);

}  // namespace fcdpm::report
