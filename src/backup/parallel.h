// perfbench's second compatibility include; see remote.h.
#ifndef BKUP_BACKUP_PARALLEL_H_
#define BKUP_BACKUP_PARALLEL_H_

#include "src/backup/remote.h"

#endif  // BKUP_BACKUP_PARALLEL_H_
