#include "storage/bitmap_cache.h"
