// Text-mode chart primitives for the visualization tool (§IV-A): line
// charts, bar charts, tables, sparklines and CSV export.
#pragma once

#include <string>
#include <vector>

#include "common/timeseries.hpp"

namespace bs::viz {

struct ChartOptions {
  std::string y_label;
};

/// Multi-series ASCII line chart, 12 rows by 72 resampled columns.
std::string line_chart(const std::string& title,
                       const std::vector<std::string>& names,
                       const std::vector<std::vector<double>>& series,
                       ChartOptions options = ChartOptions());

/// Renders a TimeSeries over [from, to) as a line chart.
std::string series_chart(const std::string& title, const TimeSeries& ts,
                         SimTime from, SimTime to,
                         ChartOptions options = ChartOptions());

/// Horizontal bar chart.
std::string bar_chart(const std::string& title,
                      const std::vector<std::string>& labels,
                      const std::vector<double>& values,
                      std::size_t width = 48);

/// One-line sparkline using block glyphs.
std::string sparkline(const std::vector<double>& values);

/// Fixed-width text table.
std::string table(const std::vector<std::string>& headers,
                  const std::vector<std::vector<std::string>>& rows);

/// CSV export (RFC-ish; commas in cells are not escaped — keep cells clean).
std::string to_csv(const std::vector<std::string>& headers,
                   const std::vector<std::vector<std::string>>& rows);

/// Number formatting helpers for chart labels.
std::string format_si(double value);

}  // namespace bs::viz
