// Main-LSM file names: the one place that formats and parses the numbered
// files (tables, WALs, MANIFESTs). Recovery, the checker and repair all call
// it, so a file they do not recognise is one no formatter writes.
//
// Numbers are zero-padded to six digits and grow past them (1000000.log),
// so names sort by number only below 1,000,000: order by the parsed number.
#pragma once

#include <cstdint>
#include <string>

namespace kvaccel::lsm {

enum class FileType { kTable, kLog, kManifest };

std::string TableFileName(uint64_t number);     // 000012.sst
std::string LogFileName(uint64_t number);       // 000012.log
std::string ManifestFileName(uint64_t number);  // MANIFEST-000012

// True iff `name` is exactly what one of the formatters above writes for
// some number; sets *number and *type then.
bool ParseFileName(const std::string& name, uint64_t* number, FileType* type);

}  // namespace kvaccel::lsm
