#pragma once

// Returning freed heap memory to the operating system at phase boundaries.
//
// glibc keeps freed heap pages resident: its trim threshold adapts to twice
// the largest freed mmap'd block, up to 64 MiB. A phase that frees many
// heap blocks right before one that maps a larger single block (the
// influence fits' feature columns, then the materialized dataset in
// core::Study::analyze_store) would otherwise carry both at once.

namespace omptune::util {

/// Hand the heap's free pages back to the OS (malloc_trim on glibc; a no-op
/// on other allocators). Live allocations are untouched.
void release_free_heap();

}  // namespace omptune::util
