#include "report/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/text.hpp"

namespace fcdpm::report {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  FCDPM_EXPECTS(!columns_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  FCDPM_EXPECTS(cells.size() <= columns_.size(),
                "row has more cells than the table has columns");
  cells.resize(columns_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule += widths[c] + (c == 0 ? 0 : 2);
  }

  // Every line after the title is `rule` wide, so the size is exact.
  std::string out;
  out.reserve(title_.size() + 1 + (rows_.size() + 2) * (rule + 1));
  out += title_;
  out += '\n';
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c != 0) {
        out += "  ";
      }
      const std::string_view text =
          c < cells.size() ? std::string_view(cells[c]) : std::string_view();
      out += text;
      out.append(widths[c] - text.size(), ' ');
    }
    out += '\n';
  };
  emit_row(columns_);
  out.append(rule, '-');
  out += '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out;
}

std::string Table::to_markdown() const {
  std::ostringstream out;
  out << "### " << title_ << "\n\n|";
  for (const std::string& column : columns_) {
    out << ' ' << column << " |";
  }
  out << "\n|";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out << "---|";
  }
  out << '\n';
  for (const auto& row : rows_) {
    out << '|';
    for (const std::string& cellText : row) {
      out << ' ' << cellText << " |";
    }
    out << '\n';
  }
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  out << "# " << title_ << '\n';
  out << format_csv_row(columns_) << '\n';
  for (const auto& row : rows_) {
    out << format_csv_row(row) << '\n';
  }
  return out.str();
}

std::string cell(double value, int decimals) {
  return format_fixed(value, decimals);
}

std::string percent_cell(double fraction, int decimals) {
  return format_percent(fraction, decimals);
}

std::ostream& operator<<(std::ostream& out, const Table& table) {
  return out << table.to_ascii();
}

}  // namespace fcdpm::report
