#include "viz/chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace bs::viz {

std::string format_si(double value) {
  char buf[32];
  const double a = std::fabs(value);
  if (a >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", value / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", value / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fk", value / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", value);
  }
  return buf;
}

namespace {
constexpr std::size_t kWidth = 72;   ///< line-chart plot columns
constexpr std::size_t kHeight = 12;  ///< line-chart plot rows

std::vector<double> resample_to(const std::vector<double>& in,
                                std::size_t width) {
  std::vector<double> out(width, 0.0);
  if (in.empty()) return out;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t lo = i * in.size() / width;
    std::size_t hi = (i + 1) * in.size() / width;
    hi = std::max(hi, lo + 1);
    double sum = 0;
    for (std::size_t j = lo; j < hi && j < in.size(); ++j) sum += in[j];
    out[i] = sum / static_cast<double>(hi - lo);
  }
  return out;
}
}  // namespace

std::string line_chart(const std::string& title,
                       const std::vector<std::string>& names,
                       const std::vector<std::vector<double>>& series,
                       ChartOptions options) {
  std::string out = "== " + title + " ==\n";
  if (series.empty()) return out + "(no data)\n";

  double lo = 0, hi = 1e-9;
  std::vector<std::vector<double>> plots;
  for (const auto& s : series) {
    plots.push_back(resample_to(s, kWidth));
    for (double v : plots.back()) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  const double span = hi - lo > 0 ? hi - lo : 1.0;
  static const char* kGlyphs = "*o+x#%@&";

  std::vector<std::string> grid(kHeight, std::string(kWidth, ' '));
  for (std::size_t s = 0; s < plots.size(); ++s) {
    const char glyph = kGlyphs[s % 8];
    for (std::size_t x = 0; x < kWidth; ++x) {
      const double norm = (plots[s][x] - lo) / span;
      auto y = static_cast<std::size_t>(
          norm * static_cast<double>(kHeight - 1) + 0.5);
      y = std::min(y, kHeight - 1);
      grid[kHeight - 1 - y][x] = glyph;
    }
  }

  char label[32];
  for (std::size_t r = 0; r < kHeight; ++r) {
    const double y_val =
        hi - (static_cast<double>(r) / (kHeight - 1)) * span;
    std::snprintf(label, sizeof(label), "%10s |",
                  format_si(y_val).c_str());
    out += label;
    out += grid[r];
    out += '\n';
  }
  out += std::string(11, ' ') + '+' + std::string(kWidth, '-') + '\n';
  if (!names.empty()) {
    out += "  legend: ";
    for (std::size_t s = 0; s < names.size(); ++s) {
      out += kGlyphs[s % 8];
      out += "=" + names[s];
      if (s + 1 < names.size()) out += "  ";
    }
    out += '\n';
  }
  if (!options.y_label.empty()) out += "  y: " + options.y_label + '\n';
  return out;
}

std::string series_chart(const std::string& title, const TimeSeries& ts,
                         SimTime from, SimTime to, ChartOptions options) {
  const SimDuration step =
      std::max<SimDuration>((to - from) / static_cast<SimTime>(kWidth), 1);
  return line_chart(title, {}, {ts.resample(from, to, step)}, options);
}

std::string bar_chart(const std::string& title,
                      const std::vector<std::string>& labels,
                      const std::vector<double>& values, std::size_t width) {
  std::string out = "== " + title + " ==\n";
  double hi = 1e-9;
  for (double v : values) hi = std::max(hi, v);
  std::size_t label_width = 0;
  for (const auto& l : labels) label_width = std::max(label_width, l.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::string label = i < labels.size() ? labels[i] : "";
    const auto bar = static_cast<std::size_t>(
        values[i] / hi * static_cast<double>(width) + 0.5);
    char line[256];
    std::snprintf(line, sizeof(line), "%-*s |%-*s %s\n",
                  static_cast<int>(label_width), label.c_str(),
                  static_cast<int>(width),
                  std::string(bar, '#').c_str(),
                  format_si(values[i]).c_str());
    out += line;
  }
  return out;
}

std::string sparkline(const std::vector<double>& values) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  if (values.empty()) return "";
  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo > 0 ? hi - lo : 1.0;
  std::string out;
  for (double v : values) {
    const auto idx = static_cast<std::size_t>((v - lo) / span * 7.0 + 0.5);
    out += kLevels[std::min<std::size_t>(idx, 7)];
  }
  return out;
}

std::string table(const std::vector<std::string>& headers,
                  const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(headers.size());
  for (std::size_t c = 0; c < headers.size(); ++c) {
    widths[c] = headers[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string out = "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      out += ' ' + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    return out + '\n';
  };
  std::string sep = "+";
  for (std::size_t w : widths) sep += std::string(w + 2, '-') + '+';
  sep += '\n';

  std::string out = sep + render_row(headers) + sep;
  for (const auto& row : rows) out += render_row(row);
  out += sep;
  return out;
}

std::string to_csv(const std::vector<std::string>& headers,
                   const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (std::size_t c = 0; c < headers.size(); ++c) {
    out += headers[c];
    out += c + 1 < headers.size() ? ',' : '\n';
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out += c + 1 < row.size() ? ',' : '\n';
    }
  }
  return out;
}

}  // namespace bs::viz
