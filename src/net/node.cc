#include "net/node.h"

// Node is header-only (template Call); this translation unit anchors the
// header so the build lists every module explicitly.
namespace jdvs {}
